// Complexity gate for the control plane (planner, UDF profiler, exchange).
//
// The no-docking NCNPR query runs on one small, fixed graph at 512 and at
// 2048 ranks. Quadrupling the ranks splits the same rows four times finer
// and grows per-rank bookkeeping four-fold, so a control plane that is
// O(p) per query keeps the wall ratio near 1 on any host. A per-rank pass
// over all ranks (an O(p^2) term) pushes it toward 16.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "core/workflow.h"
#include "telemetry/metrics.h"

namespace ids::core {
namespace {

/// Fastest of three timed runs of the query at `nodes` x 32 ranks, after
/// one warm-up run that gives the planner its UDF profiles.
double min_query_seconds(int nodes) {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 6;
  cfg.proteins_per_family = 12;
  cfg.num_related_families = 6;
  cfg.compounds_per_family = 60;
  cfg.seed = 20250707;
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  NcnprData data = build_ncnpr_data(cfg, 32 * nodes);

  telemetry::MetricsRegistry metrics;
  EngineOptions opts;
  opts.topology = runtime::Topology::cray_ex(nodes);
  opts.metrics = &metrics;
  IdsEngine engine(opts, data.triples.get(), data.features.get());
  register_ncnpr_udfs(&engine, data);

  NcnprThresholds t;
  t.min_pic50 = 4.5;
  t.min_dtba = 7.0;
  const Query q = make_ncnpr_query(data, t, /*with_docking=*/false);
  (void)engine.execute(q);

  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.execute(q);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, wall.count());
  }
  return best;
}

TEST(ControlPlaneComplexity, QueryWallStaysFlatFrom512To2048Ranks) {
  const double wall_512 = min_query_seconds(16);
  const double wall_2048 = min_query_seconds(64);
  const double ratio = wall_2048 / wall_512;
  RecordProperty("wall_512_s", std::to_string(wall_512));
  RecordProperty("wall_2048_s", std::to_string(wall_2048));
  EXPECT_LE(ratio, 6.0) << "wall(2048 ranks) = " << wall_2048
                        << " s, wall(512 ranks) = " << wall_512 << " s";
}

}  // namespace
}  // namespace ids::core
