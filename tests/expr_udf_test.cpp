// Tests for expression evaluation, conjunct chains, the UDF registry's
// module cache, and the per-rank profiler.

#include <gtest/gtest.h>

#include "expr/chain.h"
#include "expr/expr.h"
#include "expr/value.h"
#include "store/feature_store.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids {
namespace {

using expr::CmpOp;
using expr::Entity;
using expr::EvalContext;
using expr::Expr;
using expr::Value;

TEST(Value, Truthiness) {
  EXPECT_FALSE(expr::truthy(expr::null_value()));
  EXPECT_TRUE(expr::truthy(Value{true}));
  EXPECT_FALSE(expr::truthy(Value{false}));
  EXPECT_TRUE(expr::truthy(Value{std::int64_t{5}}));
  EXPECT_FALSE(expr::truthy(Value{0.0}));
  EXPECT_TRUE(expr::truthy(Value{std::string("x")}));
  EXPECT_FALSE(expr::truthy(Value{Entity{graph::kInvalidTerm}}));
}

TEST(Value, CompareNumericPromotion) {
  int c = 0;
  ASSERT_TRUE(expr::compare(Value{std::int64_t{2}}, Value{2.5}, &c));
  EXPECT_EQ(c, -1);
  ASSERT_TRUE(expr::compare(Value{3.0}, Value{std::int64_t{3}}, &c));
  EXPECT_EQ(c, 0);
}

TEST(Value, CompareIncompatibleFails) {
  int c = 0;
  EXPECT_FALSE(expr::compare(Value{std::string("a")}, Value{1.0}, &c));
  EXPECT_FALSE(expr::compare(Value{Entity{1}}, Value{1.0}, &c));
}

TEST(Expr, ConstantAndArithmetic) {
  EvalContext ctx;
  auto e = Expr::Arith(expr::ArithOp::kMul,
                       Expr::Arith(expr::ArithOp::kAdd, Expr::Constant(2.0),
                                   Expr::Constant(3.0)),
                       Expr::Constant(4.0));
  Value v = expr::eval(*e, ctx);
  double d = 0;
  ASSERT_TRUE(expr::as_double(v, &d));
  EXPECT_DOUBLE_EQ(d, 20.0);
}

TEST(Expr, DivisionByZeroYieldsNull) {
  EvalContext ctx;
  auto e = Expr::Arith(expr::ArithOp::kDiv, Expr::Constant(1.0),
                       Expr::Constant(0.0));
  EXPECT_TRUE(expr::is_null(expr::eval(*e, ctx)));
}

TEST(Expr, VarResolvesIdAndNumColumns) {
  graph::SolutionTable t({"prot"}, {"score"});
  graph::TermId id = 42;
  double s = 0.75;
  t.append_row({&id, 1}, {&s, 1});

  EvalContext ctx;
  ctx.row = {&t, 0};
  Value pv = expr::eval(*Expr::Var("prot"), ctx);
  auto* e = std::get_if<Entity>(&pv);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->id, 42u);

  Value sv = expr::eval(*Expr::Var("score"), ctx);
  double d = 0;
  ASSERT_TRUE(expr::as_double(sv, &d));
  EXPECT_DOUBLE_EQ(d, 0.75);

  EXPECT_TRUE(expr::is_null(expr::eval(*Expr::Var("missing"), ctx)));
}

TEST(Expr, FeatureLookup) {
  store::FeatureStore fs(2);
  fs.set(42, "ic50_nm", 100.0);
  graph::SolutionTable t({"cpd"});
  graph::TermId id = 42;
  t.append_row({&id, 1});

  EvalContext ctx;
  ctx.row = {&t, 0};
  ctx.udf_ctx.features = &fs;
  auto e = Expr::Compare(CmpOp::kEq, Expr::Feature(Expr::Var("cpd"), "ic50_nm"),
                         Expr::Constant(100.0));
  EXPECT_TRUE(expr::truthy(expr::eval(*e, ctx)));
}

TEST(Expr, NullPropagatesThroughComparison) {
  EvalContext ctx;
  auto e = Expr::Compare(CmpOp::kLt, Expr::Var("nope"), Expr::Constant(1.0));
  EXPECT_TRUE(expr::is_null(expr::eval(*e, ctx)));  // null -> row rejected
}

TEST(Expr, ShortCircuitSkipsRightCost) {
  udf::UdfRegistry reg;
  int calls = 0;
  reg.register_static("expensive", [&calls](const udf::UdfContext&,
                                            std::span<const Value>) {
    ++calls;
    return udf::UdfResult{true, sim::from_seconds(1.0)};
  });
  udf::UdfProfiler prof(1);

  EvalContext ctx;
  ctx.registry = &reg;
  ctx.profiler = &prof;
  auto e = Expr::And(Expr::Constant(false), Expr::Udf("expensive", {}));
  EXPECT_FALSE(expr::truthy(expr::eval(*e, ctx)));
  EXPECT_EQ(calls, 0);
  EXPECT_LT(ctx.cost, sim::from_seconds(0.5));

  auto e2 = Expr::Or(Expr::Constant(true), Expr::Udf("expensive", {}));
  EXPECT_TRUE(expr::truthy(expr::eval(*e2, ctx)));
  EXPECT_EQ(calls, 0);
}

TEST(Expr, UdfCostScaledBySpeedFactor) {
  udf::UdfRegistry reg;
  reg.register_static("work", [](const udf::UdfContext&,
                                 std::span<const Value>) {
    return udf::UdfResult{1.0, sim::from_seconds(3.0)};
  });
  udf::UdfProfiler prof(2);

  EvalContext fast;
  fast.registry = &reg;
  fast.profiler = &prof;
  fast.udf_ctx.rank = 0;
  fast.speed_factor = 3.0;
  expr::eval(*Expr::Udf("work", {}), fast);
  EXPECT_NEAR(sim::to_seconds(fast.cost), 1.0, 0.01);

  EvalContext slow;
  slow.registry = &reg;
  slow.profiler = &prof;
  slow.udf_ctx.rank = 1;
  slow.speed_factor = 1.0;
  expr::eval(*Expr::Udf("work", {}), slow);
  EXPECT_NEAR(sim::to_seconds(slow.cost), 3.0, 0.01);

  // The profiler sees each rank's effective cost.
  EXPECT_LT(prof.get(0, "work").total_time, prof.get(1, "work").total_time);
}

TEST(Expr, ContextResolvesACallSiteOnceAcrossRows) {
  udf::UdfRegistry reg;
  int calls = 0;
  reg.register_dynamic("mod", "f",
                       [&calls](const udf::UdfContext&,
                                std::span<const Value> args) {
                         ++calls;
                         return udf::UdfResult{args[0],
                                               sim::from_seconds(0.001)};
                       },
                       sim::from_seconds(2.0));
  udf::UdfProfiler prof(1);

  constexpr std::size_t kRows = 50;
  graph::SolutionTable t({"x"});
  for (graph::TermId id = 1; id <= kRows; ++id) t.append_row({&id, 1});

  auto call = Expr::Udf("mod.f", {Expr::Var("x")});
  EvalContext ctx;
  ctx.row = {&t, 0};
  ctx.registry = &reg;
  ctx.profiler = &prof;
  std::vector<sim::Nanos> costs;
  for (std::size_t row = 0; row < kRows; ++row) {
    ctx.row.row = row;
    ctx.cost = 0;
    Value v = expr::eval(*call, ctx);
    const Entity* e = std::get_if<Entity>(&v);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->id, row + 1);
    costs.push_back(ctx.cost);
  }
  // The function runs, and is profiled, once per row.
  EXPECT_EQ(calls, static_cast<int>(kRows));
  EXPECT_EQ(prof.get(0, "mod.f").execs, kRows);
  // The 2 s module import lands on the first row only.
  EXPECT_EQ(costs[0] - costs[1], sim::from_seconds(2.0));
  for (std::size_t row = 1; row < kRows; ++row) {
    EXPECT_EQ(costs[row], costs[1]) << "row " << row;
  }
}

TEST(Expr, ForceReloadAppliesFromTheNextContext) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       sim::from_seconds(2.0));
  auto call = Expr::Udf("mod.f", {});
  EvalContext ctx;
  ctx.registry = &reg;
  expr::eval(*call, ctx);
  EXPECT_GE(ctx.cost, sim::from_seconds(2.0));

  // A context serves one stage: a reload mid-stage is not paid there...
  reg.force_reload("mod");
  ctx.cost = 0;
  expr::eval(*call, ctx);
  EXPECT_LT(ctx.cost, sim::from_seconds(1.0));

  // ...but the next stage's context pays the import again.
  EvalContext next;
  next.registry = &reg;
  expr::eval(*call, next);
  EXPECT_GE(next.cost, sim::from_seconds(2.0));
}

TEST(Expr, ToStringRendersReadably) {
  auto e = Expr::Compare(CmpOp::kGe, Expr::Udf("sw", {Expr::Var("p")}),
                         Expr::Constant(0.9));
  EXPECT_EQ(e->to_string(), "(sw(?p) >= 0.9)");
}

TEST(Chain, FlattenSplitsNestedAndsLeftToRight) {
  auto a = Expr::Compare(CmpOp::kGt, Expr::Constant(2.0), Expr::Constant(1.0));
  auto b = Expr::Compare(CmpOp::kLt, Expr::Constant(1.0), Expr::Constant(2.0));
  auto c = Expr::Constant(true);
  auto chain = Expr::And(Expr::And(a, b), c);

  auto conj = expr::flatten_conjuncts(chain);
  ASSERT_EQ(conj.size(), 3u);
  EXPECT_EQ(conj[0].expr, a);
  EXPECT_EQ(conj[1].expr, b);
  EXPECT_EQ(conj[2].expr, c);
}

TEST(Chain, CollectsUdfNames) {
  auto e = Expr::And(Expr::Udf("m.f", {}),
                     Expr::Compare(CmpOp::kGt, Expr::Udf("m.g", {}),
                                   Expr::Constant(0.0)));
  auto conj = expr::flatten_conjuncts(e);
  ASSERT_EQ(conj.size(), 2u);
  EXPECT_EQ(conj[0].udfs, (std::vector<std::string>{"m.f"}));
  EXPECT_EQ(conj[1].udfs, (std::vector<std::string>{"m.g"}));
}

TEST(Chain, NonAndIsSingleConjunct) {
  auto e = Expr::Or(Expr::Constant(true), Expr::Constant(false));
  EXPECT_EQ(expr::flatten_conjuncts(e).size(), 1u);
}

TEST(Registry, StaticCannotBeReplaced) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const Value>) {
    return udf::UdfResult{1.0, 0};
  };
  EXPECT_TRUE(reg.register_static("f", fn));
  EXPECT_FALSE(reg.register_static("f", fn));  // §2.3: static once loaded
}

TEST(Registry, DynamicCanBeReplaced) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       0);
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{2.0, 0};
                       },
                       0);
  const udf::UdfInfo* info = reg.find("mod.f");
  ASSERT_NE(info, nullptr);
  udf::UdfContext ctx;
  double d = 0;
  ASSERT_TRUE(expr::as_double(info->fn(ctx, {}).value, &d));
  EXPECT_DOUBLE_EQ(d, 2.0);
}

TEST(Registry, ModuleLoadChargedOncePerRank) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       sim::from_seconds(2.0));
  const udf::UdfInfo* info = reg.find("mod.f");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(reg.charge_module_load(0, *info), sim::from_seconds(2.0));
  EXPECT_EQ(reg.charge_module_load(0, *info), 0u);  // cached
  EXPECT_EQ(reg.charge_module_load(1, *info), sim::from_seconds(2.0));
}

TEST(Registry, ForceReloadChargesAgain) {
  udf::UdfRegistry reg;
  reg.register_dynamic("mod", "f",
                       [](const udf::UdfContext&, std::span<const Value>) {
                         return udf::UdfResult{1.0, 0};
                       },
                       sim::from_seconds(1.0));
  const udf::UdfInfo* info = reg.find("mod.f");
  reg.charge_module_load(0, *info);
  reg.force_reload("mod");
  EXPECT_EQ(reg.charge_module_load(0, *info), sim::from_seconds(1.0));
}

TEST(Registry, NamesSorted) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const Value>) {
    return udf::UdfResult{1.0, 0};
  };
  reg.register_static("zeta", fn);
  reg.register_static("alpha", fn);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(Profiler, TracksTheThreePaperStatistics) {
  udf::UdfProfiler prof(2);
  prof.record_exec(0, "f", sim::from_seconds(1.0));
  prof.record_exec(0, "f", sim::from_seconds(3.0));
  prof.record_reject(0, "f");

  const udf::UdfStats s = prof.get(0, "f");
  EXPECT_EQ(s.execs, 2u);                         // (i) execution count
  EXPECT_EQ(s.total_time, sim::from_seconds(4.0));  // (ii) total time
  EXPECT_EQ(s.rejects, 1u);                       // (iii) rejections
  EXPECT_DOUBLE_EQ(s.mean_cost_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(s.rejection_rate(), 0.5);
}

TEST(Profiler, AggregateMergesRanks) {
  udf::UdfProfiler prof(3);
  prof.record_exec(0, "f", sim::from_seconds(1.0));
  prof.record_exec(2, "f", sim::from_seconds(2.0));
  udf::UdfStats agg = prof.aggregate("f");
  EXPECT_EQ(agg.execs, 2u);
  EXPECT_DOUBLE_EQ(agg.mean_cost_seconds(), 1.5);
}

TEST(Profiler, EstimateFallsBackToAggregate) {
  udf::UdfProfiler prof(2);
  prof.record_exec(0, "f", sim::from_seconds(2.0));
  const udf::ProfileSnapshot snap = prof.snapshot();
  // Rank 1 has no samples: it borrows the cross-rank aggregate.
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "f"), 2.0);
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "unknown"), 0.0);
}

TEST(Profiler, SparseRankEstimateShrinksTowardAggregate) {
  udf::UdfProfiler prof(2);
  // Rank 0 saw one unusually expensive row; rank 1 saw many cheap ones.
  prof.record_exec(0, "f", sim::from_seconds(10.0));
  for (std::uint64_t i = 0; i < udf::ProfileSnapshot::kFullConfidenceExecs;
       ++i) {
    prof.record_exec(1, "f", sim::from_seconds(1.0));
  }
  const udf::ProfileSnapshot snap = prof.snapshot();
  double agg = snap.aggregate("f").mean_cost_seconds();
  // Rank 0's single sample barely moves it off the aggregate...
  EXPECT_LT(snap.estimated_cost_seconds(0, "f"), agg + 1.0);
  // ...while rank 1's well-sampled mean is trusted in full.
  EXPECT_DOUBLE_EQ(snap.estimated_cost_seconds(1, "f"), 1.0);
}

}  // namespace
}  // namespace ids
