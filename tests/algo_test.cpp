// Graph algorithm tests: PageRank properties on known topologies and
// components on disjoint cliques — across shard counts (parameterized),
// since results must be partition-invariant.

#include <gtest/gtest.h>

#include <memory>

#include "algo/graph_algorithms.h"

namespace ids::algo {
namespace {

using graph::TermId;
using graph::TripleStore;

constexpr const char* kEdge = "edge";

// Vertex names are built by appending: GCC 12 reports a false -Wrestrict
// on inlined "literal" + std::string chains.
std::string ring_vertex(int i) {
  std::string s = "v";
  s += std::to_string(i);
  return s;
}

std::string clique_vertex(int c, int i) {
  std::string s = "c";
  s += std::to_string(c);
  s += '_';
  s += std::to_string(i);
  return s;
}

std::unique_ptr<TripleStore> ring_graph(int n, int shards) {
  auto store = std::make_unique<TripleStore>(shards);
  for (int i = 0; i < n; ++i) {
    store->add(ring_vertex(i), kEdge, ring_vertex((i + 1) % n));
  }
  store->finalize();
  return store;
}

class AlgoShards : public ::testing::TestWithParam<int> {};

TEST_P(AlgoShards, PageRankUniformOnRing) {
  const int shards = GetParam();
  auto store = ring_graph(12, shards);
  runtime::Topology topo = runtime::Topology::laptop(shards);
  PageRankResult r = pagerank(*store, topo);
  ASSERT_EQ(r.rank.size(), 12u);
  double sum = 0.0;
  for (const auto& [v, pr] : r.rank) {
    EXPECT_NEAR(pr, 1.0 / 12.0, 1e-6);  // symmetric graph: uniform rank
    sum += pr;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(r.modeled_seconds, 0.0);
}

TEST_P(AlgoShards, PageRankStarCenterWins) {
  const int shards = GetParam();
  TripleStore store(shards);
  for (int i = 1; i <= 8; ++i) {
    store.add("leaf" + std::to_string(i), kEdge, "center");
    store.add("center", kEdge, "leaf" + std::to_string(i));
  }
  store.finalize();
  runtime::Topology topo = runtime::Topology::laptop(shards);
  PageRankResult r = pagerank(store, topo);
  TermId center = *store.dict().lookup("center");
  double center_rank = r.rank.at(center);
  for (const auto& [v, pr] : r.rank) {
    if (v != center) {
      EXPECT_GT(center_rank, pr * 3);
    }
  }
}

TEST_P(AlgoShards, PageRankPartitionInvariant) {
  // The same graph must produce the same ranks regardless of sharding.
  auto a = ring_graph(20, GetParam());
  auto b = ring_graph(20, 1);
  PageRankResult ra = pagerank(*a, runtime::Topology::laptop(GetParam()));
  PageRankResult rb = pagerank(*b, runtime::Topology::laptop(1));
  for (const auto& [v, pr] : ra.rank) {
    // Dictionaries assign identical ids (same insert order).
    EXPECT_NEAR(pr, rb.rank.at(v), 1e-9);
  }
}

TEST_P(AlgoShards, ComponentsOnDisjointCliques) {
  const int shards = GetParam();
  TripleStore store(shards);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        store.add(clique_vertex(c, i), kEdge, clique_vertex(c, j));
      }
    }
  }
  store.finalize();
  ComponentsResult r =
      connected_components(store, runtime::Topology::laptop(shards));
  EXPECT_EQ(r.num_components, 3u);
  // All vertices of a clique share a label.
  for (int c = 0; c < 3; ++c) {
    TermId first = *store.dict().lookup(clique_vertex(c, 0));
    for (int i = 1; i < 4; ++i) {
      TermId v = *store.dict().lookup(clique_vertex(c, i));
      EXPECT_EQ(r.component.at(v), r.component.at(first));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, AlgoShards,
                         ::testing::Values(1, 4, 16));

TEST(Algo, PredicateFilterRestrictsEdges) {
  TripleStore store(4);
  store.add("a", "follows", "b");
  store.add("b", "follows", "c");
  store.add("a", "other", "z");
  store.finalize();
  TermId follows = *store.dict().lookup("follows");
  ComponentsResult r =
      connected_components(store, runtime::Topology::laptop(4), follows);
  EXPECT_EQ(r.component.size(), 3u);  // a, b, c — not z
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_FALSE(r.component.contains(*store.dict().lookup("z")));
}

TEST(Algo, EmptyGraphIsSafe) {
  TripleStore store(4);
  store.finalize();
  PageRankResult pr = pagerank(store, runtime::Topology::laptop(4));
  EXPECT_TRUE(pr.rank.empty());
  ComponentsResult cc =
      connected_components(store, runtime::Topology::laptop(4));
  EXPECT_EQ(cc.num_components, 0u);
}

TEST(Algo, ModeledTimeGrowsWithMachineCommunication) {
  // The same algorithm on a multi-node machine pays fabric costs a
  // single node does not.
  auto store = ring_graph(64, 64);
  PageRankResult local = pagerank(*store, runtime::Topology::laptop(64));
  PageRankResult multi = pagerank(*store, runtime::Topology::cray_ex(2));
  EXPECT_GT(multi.modeled_seconds, local.modeled_seconds);
}

}  // namespace
}  // namespace ids::algo
