// Planner and rebalancer tests, including the paper's §2.4.2 worked
// example (900 heterogeneous ranks) as a closed-form check.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "core/planner.h"
#include "core/rebalancer.h"
#include "expr/chain.h"
#include "graph/triple_store.h"

namespace ids::core {
namespace {

using expr::Expr;

TEST(Rebalancer, CountTargetsConserveTotal) {
  auto t = count_based_targets(1001, 10);
  EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::size_t{0}), 1001u);
  // Remainder spread: first one rank gets the extra row.
  EXPECT_EQ(t[0], 101u);
  EXPECT_EQ(t[9], 100u);
}

TEST(Rebalancer, ThroughputTargetsConserveTotal) {
  std::vector<double> tp = {1.0, 2.0, 3.0, 0.5};
  for (std::size_t total : {0u, 1u, 7u, 1000u, 999983u}) {
    auto t = throughput_targets(total, tp);
    EXPECT_EQ(std::accumulate(t.begin(), t.end(), std::size_t{0}), total);
  }
}

TEST(Rebalancer, ThroughputTargetsProportional) {
  std::vector<double> tp = {100.0, 200.0, 300.0};
  auto t = throughput_targets(600, tp);
  EXPECT_EQ(t[0], 100u);
  EXPECT_EQ(t[1], 200u);
  EXPECT_EQ(t[2], 300u);
}

TEST(Rebalancer, PaperWorkedExample) {
  // §2.4.2: 1.4M solutions; 500 ranks @100 ops/s, 300 @200, 100 @300.
  std::vector<double> tp;
  tp.insert(tp.end(), 500, 100.0);
  tp.insert(tp.end(), 300, 200.0);
  tp.insert(tp.end(), 100, 300.0);
  const std::size_t total = 1'400'000;

  auto targets = throughput_targets(total, tp);
  EXPECT_EQ(std::accumulate(targets.begin(), targets.end(), std::size_t{0}),
            total);
  // Slow ranks get 1000 solutions, 2x ranks 2000, 3x ranks 3000
  // (the paper's chunk_size * rank_ratio assignment).
  EXPECT_EQ(targets[0], 1000u);
  EXPECT_EQ(targets[500], 2000u);
  EXPECT_EQ(targets[899], 3000u);

  // Completion: balanced = total / aggregate throughput = 10 s; count-based
  // is bounded by the slowest rank at ~15.6 s. Throughput-based wins by the
  // ratio the paper's example illustrates.
  double balanced = completion_seconds(targets, tp);
  double count_based =
      completion_seconds(count_based_targets(total, 900), tp);
  EXPECT_NEAR(balanced, 10.0, 0.01);
  EXPECT_NEAR(count_based, 1556.0 / 100.0, 0.1);
  EXPECT_LT(balanced, count_based);
}

TEST(Rebalancer, DecideUsesCountWhenSimilar) {
  // All ranks within 20% of the slowest: count-based (the paper's rule).
  std::vector<std::size_t> counts = {10, 20, 30, 0};
  std::vector<double> tp = {100, 110, 105, 119};
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_TRUE(d.rebalance);
  EXPECT_FALSE(d.used_throughput);
  EXPECT_EQ(d.targets, count_based_targets(60, 4));
}

TEST(Rebalancer, DecideUsesThroughputWhenDivergent) {
  std::vector<std::size_t> counts = {30, 30};
  std::vector<double> tp = {100, 300};
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_TRUE(d.used_throughput);
  EXPECT_EQ(d.targets[0], 15u);
  EXPECT_EQ(d.targets[1], 45u);
  EXPECT_NEAR(d.speed_ratio, 3.0, 1e-9);
}

TEST(Rebalancer, MissingProfilesForceCountBased) {
  std::vector<std::size_t> counts = {5, 5};
  std::vector<double> tp = {100, 0.0};  // rank 1 never ran the UDF
  auto d = decide_rebalance(RebalancePolicy::kThroughput, counts, tp);
  EXPECT_FALSE(d.used_throughput);
}

TEST(Rebalancer, PolicyNoneDoesNothing) {
  auto d = decide_rebalance(RebalancePolicy::kNone, {1, 2}, {1.0, 2.0});
  EXPECT_FALSE(d.rebalance);
}

TEST(Rebalancer, PolicyCountIgnoresThroughput) {
  auto d = decide_rebalance(RebalancePolicy::kCount, {9, 1}, {100.0, 900.0});
  EXPECT_TRUE(d.rebalance);
  EXPECT_FALSE(d.used_throughput);
}

// --- Pattern ordering -------------------------------------------------------

class PatternOrdering : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<graph::TripleStore>(4);
    // 100 proteins, 10 reviewed, 200 inhibit edges.
    for (int i = 0; i < 100; ++i) {
      std::string p = "prot" + std::to_string(i);
      store_->add(p, "type", "Protein");
      if (i < 10) store_->add(p, "reviewed", "true");
    }
    for (int i = 0; i < 200; ++i) {
      store_->add("cpd" + std::to_string(i % 50), "inhibits",
                  "prot" + std::to_string(i % 100));
    }
    store_->finalize();
  }

  graph::TriplePattern pat(const char* s, const char* p, const char* o) {
    auto term = [this](const char* t) -> graph::PatternTerm {
      if (t[0] == '?') return graph::PatternTerm::Var(t + 1);
      return graph::PatternTerm::Const(*store_->dict().lookup(t));
    };
    return {term(s), term(p), term(o)};
  }

  std::unique_ptr<graph::TripleStore> store_;
};

TEST_F(PatternOrdering, CardinalityEstimatesAreExact) {
  EXPECT_EQ(estimate_cardinality(*store_, pat("?x", "type", "Protein")), 100u);
  EXPECT_EQ(estimate_cardinality(*store_, pat("?x", "reviewed", "true")), 10u);
}

TEST_F(PatternOrdering, MostSelectiveFirstThenConnected) {
  std::vector<graph::TriplePattern> patterns = {
      pat("?p", "type", "Protein"),        // card 100
      pat("?c", "inhibits", "?p"),         // card 200
      pat("?p", "reviewed", "true"),       // card 10  <- should go first
  };
  auto order = order_patterns(*store_, patterns);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // reviewed (10)
  EXPECT_EQ(order[1], 0u);  // type (100), subject-bound extension
  EXPECT_EQ(order[2], 1u);  // inhibits joins last
}

TEST_F(PatternOrdering, DisconnectedPatternsGoLast) {
  std::vector<graph::TriplePattern> patterns = {
      pat("?a", "reviewed", "true"),
      pat("?z", "inhibits", "?w"),  // shares nothing with ?a
  };
  auto order = order_patterns(*store_, patterns);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

// --- Conjunct ordering ------------------------------------------------------

TEST(ConjunctOrdering, AscendingProfiledCost) {
  udf::UdfProfiler prof(1);
  prof.record_exec(0, "cheap", sim::from_millis(1));
  prof.record_exec(0, "mid", sim::from_seconds(0.2));
  prof.record_exec(0, "costly", sim::from_seconds(30));

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("costly", {}), {"costly"}},
      {Expr::Udf("cheap", {}), {"cheap"}},
      {Expr::Udf("mid", {}), {"mid"}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(ConjunctOrdering, TieBrokenByRejectionRate) {
  udf::UdfProfiler prof(1);
  // Equal cost; g rejects more.
  for (int i = 0; i < 10; ++i) {
    prof.record_exec(0, "f", sim::from_seconds(1.0));
    prof.record_exec(0, "g", sim::from_seconds(1.0));
  }
  prof.record_reject(0, "f");
  for (int i = 0; i < 8; ++i) prof.record_reject(0, "g");

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("f", {}), {"f"}},
      {Expr::Udf("g", {}), {"g"}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));  // g first
}

TEST(ConjunctOrdering, UnprofiledKeepsOriginalOrder) {
  udf::UdfProfiler prof(1);
  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("a", {}), {"a"}},
      {Expr::Udf("b", {}), {"b"}},
      {Expr::Constant(true), {}},
  };
  auto order = order_conjuncts(conj, 0, prof);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ConjunctOrdering, PerRankOrdersDiffer) {
  udf::UdfProfiler prof(2);
  // Rank 0 finds f cheap; rank 1 finds f expensive. Enough samples that
  // the shrinkage toward the aggregate trusts the per-rank means.
  for (std::uint64_t i = 0; i < udf::ProfileSnapshot::kFullConfidenceExecs; ++i) {
    prof.record_exec(0, "f", sim::from_millis(1));
    prof.record_exec(1, "f", sim::from_seconds(10));
    prof.record_exec(0, "g", sim::from_seconds(1));
    prof.record_exec(1, "g", sim::from_seconds(1));
  }

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("f", {}), {"f"}},
      {Expr::Udf("g", {}), {"g"}},
  };
  auto o0 = order_conjuncts(conj, 0, prof);
  auto o1 = order_conjuncts(conj, 1, prof);
  EXPECT_EQ(o0, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(o1, (std::vector<std::size_t>{1, 0}));
}

TEST(ConjunctOrdering, SolutionTimeEstimateDiscountsBySelectivity) {
  udf::UdfProfiler prof(1);
  for (int i = 0; i < 10; ++i) {
    prof.record_exec(0, "first", sim::from_seconds(1.0));
    prof.record_exec(0, "second", sim::from_seconds(10.0));
  }
  for (int i = 0; i < 9; ++i) prof.record_reject(0, "first");  // rejects 90%

  std::vector<expr::Conjunct> conj = {
      {Expr::Udf("first", {}), {"first"}},
      {Expr::Udf("second", {}), {"second"}},
  };
  std::vector<std::size_t> order = {0, 1};
  double est = estimate_solution_seconds(conj, order, 0, prof);
  // 1.0 + 0.1 * 10.0 = 2.0 (the second conjunct runs only 10% of the time).
  EXPECT_NEAR(est, 2.0, 1e-9);
}

// --- Profile snapshot ---------------------------------------------------------

// The planner's estimates as computed before snapshots existed: straight
// off the live profiler's get()/aggregate(), one scan per call. The
// snapshot-based planner must reproduce them bit for bit.
double reference_cost(const udf::UdfProfiler& prof, int rank,
                      const std::string& name) {
  udf::UdfStats agg = prof.aggregate(name);
  double agg_mean = agg.mean_cost_seconds();
  udf::UdfStats s = prof.get(rank, name);
  if (s.execs == 0) return agg_mean;
  double w = std::min(
      1.0, static_cast<double>(s.execs) /
               static_cast<double>(udf::ProfileSnapshot::kFullConfidenceExecs));
  return (1.0 - w) * agg_mean + w * s.mean_cost_seconds();
}

ConjunctEstimate reference_conjunct(const udf::UdfProfiler& prof, int rank,
                                    const expr::Conjunct& c) {
  ConjunctEstimate e;
  for (const auto& name : c.udfs) {
    e.cost_seconds += reference_cost(prof, rank, name);
    e.rejection_rate =
        std::max(e.rejection_rate, prof.aggregate(name).rejection_rate());
  }
  return e;
}

std::vector<std::size_t> reference_order(
    const udf::UdfProfiler& prof, int rank,
    const std::vector<expr::Conjunct>& conj) {
  std::vector<ConjunctEstimate> est;
  for (const auto& c : conj) est.push_back(reference_conjunct(prof, rank, c));
  auto bucket_of = [](double cost) {
    if (cost <= 0.0) return std::numeric_limits<int>::min();
    return static_cast<int>(std::floor(std::log(cost) / std::log(1.2)));
  };
  std::vector<std::size_t> order(conj.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     int ba = bucket_of(est[a].cost_seconds);
                     int bb = bucket_of(est[b].cost_seconds);
                     if (ba != bb) return ba < bb;
                     return est[a].rejection_rate > est[b].rejection_rate;
                   });
  return order;
}

double reference_solution_seconds(const udf::UdfProfiler& prof, int rank,
                                  const std::vector<expr::Conjunct>& conj,
                                  const std::vector<std::size_t>& order) {
  double total = 0.0;
  double reach = 1.0;
  for (std::size_t idx : order) {
    ConjunctEstimate e = reference_conjunct(prof, rank, conj[idx]);
    total += reach * e.cost_seconds;
    reach *= std::max(0.0, 1.0 - e.rejection_rate);
  }
  return total;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const udf::UdfStats& a, const udf::UdfStats& b) {
  return a.execs == b.execs && a.total_time == b.total_time &&
         a.rejects == b.rejects;
}

TEST(ProfileSnapshot, MatchesLiveProfilerAndReferencePlanner) {
  constexpr int kRanks = 9;
  const std::vector<std::string> recorded = {"a", "b", "c", "d"};
  udf::UdfProfiler prof(kRanks);
  Rng rng(77);
  for (int r = 0; r < kRanks; ++r) {
    if (r == 4 || r == 7) continue;  // ranks with no records at all
    for (const auto& name : recorded) {
      // From unseen through sparse (below full confidence) to well sampled.
      const auto execs = rng.next_below(40);
      for (std::uint64_t i = 0; i < execs; ++i) {
        prof.record_exec(r, name,
                         sim::from_seconds(rng.uniform(1e-4, 2.0)));
        if (rng.next_below(3) == 0) prof.record_reject(r, name);
      }
    }
  }
  const udf::ProfileSnapshot snap = prof.snapshot();

  std::vector<std::string> names = recorded;
  names.push_back("ghost");  // no rank has seen it
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    EXPECT_TRUE(same_stats(snap.aggregate(name), prof.aggregate(name)));
    for (int r = 0; r < kRanks; ++r) {
      EXPECT_TRUE(same_stats(snap.get(r, name), prof.get(r, name)));
      EXPECT_TRUE(same_bits(snap.estimated_cost_seconds(r, name),
                            reference_cost(prof, r, name)));
    }
  }

  auto conj = [](std::vector<std::string> udfs) {
    return expr::Conjunct{Expr::Constant(true), std::move(udfs)};
  };
  const std::vector<expr::Conjunct> chain = {
      conj({"a"}),      conj({"b", "c"}), conj({"ghost"}), conj({"d"}),
      conj({}),         conj({"c"}),      conj({"a", "ghost", "d"}),
  };
  for (int r = 0; r < kRanks; ++r) {
    SCOPED_TRACE(r);
    const auto order = order_conjuncts(chain, r, snap);
    EXPECT_EQ(order, reference_order(prof, r, chain));
    EXPECT_EQ(order, order_conjuncts(chain, r, prof));  // live entry point
    const double est = estimate_solution_seconds(chain, order, r, snap);
    EXPECT_TRUE(
        same_bits(est, reference_solution_seconds(prof, r, chain, order)));
    EXPECT_TRUE(
        same_bits(est, estimate_solution_seconds(chain, order, r, prof)));
  }
}

}  // namespace
}  // namespace ids::core
