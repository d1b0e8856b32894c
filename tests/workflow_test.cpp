// NCNPR workflow integration tests: dataset + UDF registration + the
// 5-step query, threshold sweep monotonicity, cache acceleration, and
// planner learning across repeated queries.

#include <gtest/gtest.h>

#include "core/workflow.h"

namespace ids::core {
namespace {

datagen::LifeSciConfig small_config() {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 8;
  cfg.proteins_per_family = 8;
  cfg.num_related_families = 4;
  cfg.compounds_per_family = 8;
  cfg.seq_len_mean = 160;
  cfg.seq_len_jitter = 20;
  cfg.seed = 99;
  return cfg;
}

class WorkflowTest : public ::testing::Test {
 protected:
  static constexpr int kRanks = 8;
  void SetUp() override { data_ = build_ncnpr_data(small_config(), kRanks); }

  IdsEngine make_engine(EngineOptions opts = {}) {
    opts.topology = runtime::Topology::laptop(kRanks);
    return IdsEngine(opts, data_.triples.get(), data_.features.get(),
                     data_.keywords.get(), data_.vectors.get());
  }

  NcnprData data_;
};

TEST_F(WorkflowTest, DatasetHasExpectedShape) {
  EXPECT_EQ(data_.dataset.proteins.size(), 64u);
  EXPECT_EQ(data_.dataset.compounds.size(), 64u);
  EXPECT_NE(data_.dataset.target_protein, graph::kInvalidTerm);
  EXPECT_FALSE(data_.target_sequence.empty());
  EXPECT_GT(data_.triples->total_triples(), 200u);
  // The target IRI matches the paper's protein of interest.
  EXPECT_EQ(data_.triples->dict().name(data_.dataset.target_protein),
            "uniprot:P29274");
}

TEST_F(WorkflowTest, UdfsRegistered) {
  IdsEngine eng = make_engine();
  register_ncnpr_udfs(&eng, data_);
  for (const char* name : {"ncnpr.sw_similarity", "ncnpr.pic50", "ncnpr.dtba",
                           "ncnpr.dock"}) {
    EXPECT_NE(eng.registry().find(name), nullptr) << name;
  }
}

TEST_F(WorkflowTest, SwUdfMatchesDirectComputation) {
  IdsEngine eng = make_engine();
  register_ncnpr_udfs(&eng, data_);
  const udf::UdfInfo* sw = eng.registry().find("ncnpr.sw_similarity");
  ASSERT_NE(sw, nullptr);
  udf::UdfContext ctx;
  ctx.features = data_.features.get();

  // The target protein scores 1.0 against itself.
  std::vector<expr::Value> args = {
      expr::Entity{data_.dataset.target_protein}};
  udf::UdfResult r = sw->fn(ctx, args);
  double sim = 0;
  ASSERT_TRUE(expr::as_double(r.value, &sim));
  EXPECT_DOUBLE_EQ(sim, 1.0);
  EXPECT_GT(r.modeled_cost, 0u);
}

TEST_F(WorkflowTest, ThresholdSweepIsMonotonic) {
  // Lower Smith-Waterman thresholds can only admit more compounds — the
  // monotonicity behind Table 2's 56 -> 1129 growth.
  std::size_t prev = 0;
  for (double threshold : {0.9, 0.4, 0.15, 0.02}) {
    IdsEngine eng = make_engine();
    register_ncnpr_udfs(&eng, data_);
    NcnprThresholds t;
    t.min_sw_similarity = threshold;
    t.min_pic50 = 0.0;   // isolate the SW effect
    t.min_dtba = 0.0;
    Query q = make_ncnpr_query(data_, t, /*with_docking=*/false);
    QueryResult r = eng.execute(q);
    EXPECT_GE(r.solutions.num_rows(), prev) << "threshold " << threshold;
    prev = r.solutions.num_rows();
  }
  EXPECT_GT(prev, 0u);
}

TEST_F(WorkflowTest, FullQueryDocksDistinctCompounds) {
  IdsEngine eng = make_engine();
  register_ncnpr_udfs(&eng, data_);
  NcnprThresholds t;
  t.min_sw_similarity = 0.9;
  t.min_pic50 = 4.5;
  t.min_dtba = 0.0;  // keep the candidate set non-trivial at this tiny scale
  Query q = make_ncnpr_query(data_, t);
  QueryResult r = eng.execute(q);

  EXPECT_GT(r.rows_invoked, 0u);
  EXPECT_EQ(r.rows_invoked, r.solutions.num_rows());  // one dock per compound
  int energy = r.solutions.num_var_index("energy");
  ASSERT_GE(energy, 0);
  // Ordered by energy ascending (best binder first).
  for (std::size_t row = 1; row < r.solutions.num_rows(); ++row) {
    EXPECT_LE(r.solutions.num_at(row - 1, energy),
              r.solutions.num_at(row, energy));
  }
  // Docking dominates the runtime, as in Fig 4.
  EXPECT_GT(r.stage_seconds("invoke:ncnpr.dock"),
            r.seconds_excluding("invoke:"));
}

TEST_F(WorkflowTest, CachingAcceleratesRepeatQueries) {
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 64 << 20;
  cache::CacheManager cache(cc);

  EngineOptions opts;
  opts.cache = &cache;
  IdsEngine eng = make_engine(opts);
  register_ncnpr_udfs(&eng, data_);
  NcnprThresholds t;
  t.min_sw_similarity = 0.9;
  t.min_pic50 = 4.5;
  t.min_dtba = 0.0;
  Query q = make_ncnpr_query(data_, t, true, /*docking_cached=*/true);

  QueryResult cold = eng.execute(q);
  ASSERT_GT(cold.cache_misses, 0u);
  QueryResult warm = eng.execute(q);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, cold.cache_misses);
  // The paper reports 5-15x end-to-end; at minimum the warm run must win
  // clearly once docking is served from the cache.
  EXPECT_LT(warm.total_seconds, cold.total_seconds / 2.0);
  // Same compounds, same energies.
  EXPECT_EQ(warm.solutions.num_rows(), cold.solutions.num_rows());
  int ec = warm.solutions.num_var_index("energy");
  for (std::size_t row = 0; row < warm.solutions.num_rows(); ++row) {
    EXPECT_DOUBLE_EQ(warm.solutions.num_at(row, ec),
                     cold.solutions.num_at(row, ec));
  }
}

TEST_F(WorkflowTest, ProfilesImproveFilterOrderingOverTime) {
  IdsEngine eng = make_engine();
  register_ncnpr_udfs(&eng, data_);
  NcnprThresholds t;
  t.min_sw_similarity = 0.9;  // SW rejects most rows cheaply
  Query q = make_ncnpr_query(data_, t, /*with_docking=*/false);

  // First run: no profiles; the query lists DTBA (expensive) first, so
  // every row pays it. Later runs reorder SW (cheap, high-rejection)
  // before DTBA and the FILTER stage gets faster.
  QueryResult first = eng.execute(q);
  QueryResult second = eng.execute(q);
  QueryResult third = eng.execute(q);
  EXPECT_LT(second.stage_seconds("filter"),
            first.stage_seconds("filter") * 0.8);
  // And the result set is unchanged by the reordering.
  EXPECT_EQ(second.solutions.num_rows(), first.solutions.num_rows());
  EXPECT_EQ(third.solutions.num_rows(), first.solutions.num_rows());
}

TEST_F(WorkflowTest, ModuleLoadCostAppearsOnceColdPerRank) {
  IdsEngine eng = make_engine();
  register_ncnpr_udfs(&eng, data_);
  NcnprThresholds t;
  t.min_sw_similarity = 0.0;
  t.min_pic50 = 0.0;
  t.min_dtba = 0.0;
  Query q = make_ncnpr_query(data_, t, /*with_docking=*/false);
  QueryResult cold = eng.execute(q);
  QueryResult warm = eng.execute(q);
  // The 2 s/rank Python-module import is gone on the warm run.
  EXPECT_LT(warm.stage_seconds("filter") + 1.0,
            cold.stage_seconds("filter"));
  // UDF call sites are resolved per stage, so nothing cached from the
  // warm query hides a reload: every rank pays the import again.
  eng.registry().force_reload("ncnpr");
  QueryResult reloaded = eng.execute(q);
  EXPECT_GT(reloaded.stage_seconds("filter"),
            warm.stage_seconds("filter") + 1.0);
  EXPECT_EQ(reloaded.solutions.num_rows(), cold.solutions.num_rows());
}

TEST_F(WorkflowTest, DeterministicEndToEnd) {
  auto run = [&]() {
    IdsEngine eng = make_engine();
    register_ncnpr_udfs(&eng, data_);
    NcnprThresholds t;
    t.min_sw_similarity = 0.9;
    t.min_pic50 = 4.5;
    t.min_dtba = 0.0;
    return eng.execute(make_ncnpr_query(data_, t));
  };
  QueryResult a = run();
  QueryResult b = run();
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.solutions.num_rows(), b.solutions.num_rows());
}

}  // namespace
}  // namespace ids::core
