#include "algo/graph_algorithms.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/exchange.h"
#include "sim/virtual_clock.h"

namespace ids::algo {

namespace {

using graph::TermId;

/// Per-rank adjacency extracted from the store, vertex ownership by the
/// store's subject sharding.
struct DistributedGraph {
  int num_ranks = 0;
  const graph::TripleStore* store = nullptr;
  // edges[r] = (u, v) pairs whose source u is owned by rank r.
  std::vector<std::vector<std::pair<TermId, TermId>>> edges;
  // vertices[r] = owned vertex ids (sources and destinations hashed there).
  std::vector<std::vector<TermId>> vertices;
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;

  int owner(TermId v) const { return store->shard_of_subject(v); }
};

DistributedGraph extract(const graph::TripleStore& store, int num_ranks,
                         TermId predicate, bool undirected) {
  DistributedGraph g;
  g.num_ranks = num_ranks;
  g.store = &store;
  g.edges.resize(static_cast<std::size_t>(num_ranks));
  g.vertices.resize(static_cast<std::size_t>(num_ranks));

  graph::TriplePattern pattern{
      graph::PatternTerm::Var("s"),
      predicate == graph::kInvalidTerm ? graph::PatternTerm::Var("p")
                                       : graph::PatternTerm::Const(predicate),
      graph::PatternTerm::Var("o")};

  std::unordered_map<TermId, bool> seen;
  for (int shard = 0; shard < store.num_shards(); ++shard) {
    store.shard(shard).scan(pattern, [&](const graph::Triple& t) {
      g.edges[static_cast<std::size_t>(g.owner(t.s))].emplace_back(t.s, t.o);
      ++g.num_edges;
      if (undirected) {
        g.edges[static_cast<std::size_t>(g.owner(t.o))].emplace_back(t.o, t.s);
      }
      for (TermId v : {t.s, t.o}) {
        if (seen.emplace(v, true).second) {
          g.vertices[static_cast<std::size_t>(g.owner(v))].push_back(v);
        }
      }
    });
  }
  g.num_vertices = seen.size();
  return g;
}

/// Charges one BSP superstep: local work proportional to edges touched,
/// plus an exchange of `messages[r]` outbound messages of `bytes_each`.
void charge_superstep(sim::ClockSet& clocks, const runtime::Topology& topo,
                      const DistributedGraph& g,
                      const std::vector<std::uint64_t>& messages_out,
                      std::uint64_t bytes_each) {
  constexpr double kSecondsPerEdge = 4.0e-9;  // cache-friendly edge scans
  for (int r = 0; r < g.num_ranks; ++r) {
    auto ru = static_cast<std::size_t>(r);
    clocks.at(ru).advance(sim::from_seconds(
        kSecondsPerEdge * static_cast<double>(g.edges[ru].size())));
    runtime::TrafficSummary t;
    // Destinations are hash-spread: approximate all traffic as inter-node
    // when the machine has more than one node.
    std::uint64_t bytes = messages_out[ru] * bytes_each;
    if (topo.num_nodes > 1) {
      t.inter_sent = bytes;
      t.inter_recv = bytes;
    } else {
      t.intra_sent = bytes;
      t.intra_recv = bytes;
    }
    t.messages = std::min<std::uint64_t>(
        messages_out[ru], static_cast<std::uint64_t>(g.num_ranks));
    runtime::charge_traffic(clocks.at(ru), topo, t);
  }
  clocks.barrier();
}

}  // namespace

PageRankResult pagerank(const graph::TripleStore& store,
                        const runtime::Topology& topology,
                        graph::TermId predicate,
                        const PageRankOptions& options) {
  PageRankResult result;
  const int p = topology.num_ranks();
  DistributedGraph g = extract(store, p, predicate, /*undirected=*/false);
  if (g.num_vertices == 0) return result;

  sim::ClockSet clocks(static_cast<std::size_t>(p));
  const double n = static_cast<double>(g.num_vertices);

  std::unordered_map<TermId, double> rank;
  std::unordered_map<TermId, double> out_degree;
  rank.reserve(g.num_vertices);
  for (const auto& verts : g.vertices) {
    for (TermId v : verts) rank[v] = 1.0 / n;
  }
  for (const auto& edges : g.edges) {
    for (const auto& [u, v] : edges) {
      (void)v;
      out_degree[u] += 1.0;
    }
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    std::unordered_map<TermId, double> incoming;
    incoming.reserve(g.num_vertices);
    std::vector<std::uint64_t> messages(static_cast<std::size_t>(p), 0);
    double dangling_mass = 0.0;

    for (int r = 0; r < p; ++r) {
      auto ru = static_cast<std::size_t>(r);
      for (const auto& [u, v] : g.edges[ru]) {
        incoming[v] += rank[u] / out_degree[u];
        if (g.owner(v) != r) ++messages[ru];
      }
      for (TermId v : g.vertices[ru]) {
        if (out_degree.find(v) == out_degree.end()) dangling_mass += rank[v];
      }
    }

    double delta = 0.0;
    std::unordered_map<TermId, double> next;
    next.reserve(g.num_vertices);
    for (const auto& verts : g.vertices) {
      for (TermId v : verts) {
        double in = 0.0;
        if (auto it = incoming.find(v); it != incoming.end()) in = it->second;
        double nv = (1.0 - options.damping) / n +
                    options.damping * (in + dangling_mass / n);
        delta += std::abs(nv - rank[v]);
        next[v] = nv;
      }
    }
    rank = std::move(next);
    charge_superstep(clocks, topology, g, messages, sizeof(TermId) + 8);
    result.iterations = iter + 1;
    if (delta < options.tolerance) break;
  }

  result.rank = std::move(rank);
  result.modeled_seconds = sim::to_seconds(clocks.max());
  return result;
}

ComponentsResult connected_components(const graph::TripleStore& store,
                                      const runtime::Topology& topology,
                                      graph::TermId predicate) {
  ComponentsResult result;
  const int p = topology.num_ranks();
  DistributedGraph g = extract(store, p, predicate, /*undirected=*/true);
  sim::ClockSet clocks(static_cast<std::size_t>(p));

  std::unordered_map<TermId, TermId> label;
  for (const auto& verts : g.vertices) {
    for (TermId v : verts) label[v] = v;
  }

  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::uint64_t> messages(static_cast<std::size_t>(p), 0);
    for (int r = 0; r < p; ++r) {
      auto ru = static_cast<std::size_t>(r);
      for (const auto& [u, v] : g.edges[ru]) {
        if (label[u] < label[v]) {
          label[v] = label[u];
          changed = true;
          if (g.owner(v) != r) ++messages[ru];
        }
      }
    }
    charge_superstep(clocks, topology, g, messages, 2 * sizeof(TermId));
    ++result.supersteps;
  }

  std::unordered_map<TermId, bool> roots;
  for (const auto& [v, l] : label) roots.emplace(l, true);
  result.num_components = roots.size();
  result.component = std::move(label);
  result.modeled_seconds = sim::to_seconds(clocks.max());
  return result;
}

}  // namespace ids::algo
