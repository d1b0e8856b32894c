// Tests for virtual time, the fabric cost model, topology, heterogeneity
// profiles, and the costed collectives.

#include <gtest/gtest.h>

#include "runtime/exchange.h"
#include "runtime/hetero.h"
#include "runtime/rank_exec.h"
#include "runtime/topology.h"
#include "sim/fabric.h"
#include "sim/time.h"
#include "sim/virtual_clock.h"

namespace ids {
namespace {

using runtime::Topology;

TEST(SimTime, Conversions) {
  EXPECT_EQ(sim::from_seconds(1.0), sim::kNanosPerSecond);
  EXPECT_EQ(sim::from_millis(1.5), 1'500'000u);
  EXPECT_DOUBLE_EQ(sim::to_seconds(sim::from_seconds(42.0)), 42.0);
}

TEST(VirtualClock, AdvanceAndRaise) {
  sim::VirtualClock c;
  c.advance(100);
  EXPECT_EQ(c.now(), 100u);
  c.raise_to(50);  // never moves backwards
  EXPECT_EQ(c.now(), 100u);
  c.raise_to(200);
  EXPECT_EQ(c.now(), 200u);
}

TEST(ClockSet, BarrierRaisesAllToMax) {
  sim::ClockSet clocks(4);
  clocks.at(0).advance(10);
  clocks.at(2).advance(99);
  sim::Nanos m = clocks.barrier();
  EXPECT_EQ(m, 99u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(clocks.at(r).now(), 99u);
}

TEST(LinkModel, AlphaBetaCost) {
  sim::LinkModel link{1000, 1.0e9};  // 1 us latency, 1 GB/s
  // 1 MB at 1 GB/s = 1 ms, plus latency.
  EXPECT_EQ(link.transfer_cost(1'000'000), 1000u + 1'000'000u);
  EXPECT_EQ(link.transfer_cost(0), 1000u);
}

TEST(Topology, RankNodeMapping) {
  Topology t = Topology::cray_ex(4);
  EXPECT_EQ(t.num_ranks(), 128);
  EXPECT_EQ(t.node_of_rank(0), 0);
  EXPECT_EQ(t.node_of_rank(31), 0);
  EXPECT_EQ(t.node_of_rank(32), 1);
  EXPECT_TRUE(t.same_node(0, 31));
  EXPECT_FALSE(t.same_node(31, 32));
}

TEST(Topology, LinkSelection) {
  Topology t = Topology::laptop(4);
  // All ranks on one node: intra link everywhere.
  EXPECT_EQ(&t.link(0, 3), &t.fabric.intra_node);
  Topology c = Topology::cray_ex(2);
  EXPECT_EQ(&c.link(0, 33), &c.fabric.inter_node);
}

TEST(Hetero, GroupsMatchPaperExample) {
  auto h = runtime::HeteroProfile::groups({{500, 1.0}, {300, 2.0}, {100, 3.0}});
  EXPECT_EQ(h.num_ranks(), 900);
  EXPECT_DOUBLE_EQ(h.at(0), 1.0);
  EXPECT_DOUBLE_EQ(h.at(500), 2.0);
  EXPECT_DOUBLE_EQ(h.at(899), 3.0);
  EXPECT_DOUBLE_EQ(h.min_speed(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_speed(), 3.0);
}

TEST(Hetero, EmptyProfileIsHomogeneous) {
  runtime::HeteroProfile h;
  EXPECT_DOUBLE_EQ(h.at(12345), 1.0);
}

TEST(Hetero, RandomIsDeterministicInSeed) {
  auto a = runtime::HeteroProfile::random(64, 0.5, 2.0, 9);
  auto b = runtime::HeteroProfile::random(64, 0.5, 2.0, 9);
  EXPECT_EQ(a.speeds(), b.speeds());
  for (double s : a.speeds()) {
    EXPECT_GE(s, 0.5);
    EXPECT_LE(s, 2.0);
  }
}

TEST(RankExec, ForEachRankRunsAll) {
  std::vector<int> hits(64, 0);
  runtime::for_each_rank(64, "test.rank",
                         [&](int r) { hits[static_cast<std::size_t>(r)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Exchange, ChargeTrafficIntraCheaperThanInter) {
  Topology topo = Topology::cray_ex(2);
  sim::VirtualClock intra;
  sim::VirtualClock inter;
  runtime::TrafficSummary ti;
  ti.intra_sent = 1 << 20;
  ti.messages = 1;
  runtime::TrafficSummary te;
  te.inter_sent = 1 << 20;
  te.messages = 1;
  runtime::charge_traffic(intra, topo, ti);
  runtime::charge_traffic(inter, topo, te);
  EXPECT_LT(intra.now(), inter.now());
}

TEST(Exchange, TreeCollectiveScalesLogarithmically) {
  auto cost_at = [](int nodes) {
    Topology topo = Topology::cray_ex(nodes);
    sim::ClockSet clocks(static_cast<std::size_t>(topo.num_ranks()));
    runtime::charge_tree_collective(clocks, topo, 1024);
    return clocks.max();
  };
  sim::Nanos c64 = cost_at(64);
  sim::Nanos c256 = cost_at(256);
  // 4x the machine adds exactly 2 tree steps, not 4x the cost.
  EXPECT_GT(c256, c64);
  EXPECT_LT(c256, 2 * c64);
}

}  // namespace
}  // namespace ids
