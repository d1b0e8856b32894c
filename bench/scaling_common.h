#pragma once

// Setup for the Fig 4 / Fig 5 scaling bench (bench_fig4_scaling).
//
// Scale model (DESIGN.md §2): the paper runs the NCNPR query over a 100B-
// fact graph where ~66M UniProt sequences are compared against P29274 on
// 2048-8192 ranks. We generate a structurally identical graph with ~10k
// physical candidate rows and set row_multiplier so the *logical* candidate
// count matches the paper's 66M; rejected rows model the background that
// fails the filter chain, surviving rows (and docking) are real. Per-rank
// critical-path times then land in the paper's regime by construction of
// the calibrated kernel costs, not by hardcoding the totals.

#include <cstdio>

#include "core/workflow.h"

namespace ids::bench {

struct ScalingSetup {
  core::NcnprData data;
  double row_multiplier = 1.0;
  datagen::LifeSciConfig config;
};

/// The paper's scaling workload at laptop scale, sharded for `num_ranks`.
inline ScalingSetup make_scaling_setup(int num_ranks) {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 120;
  cfg.proteins_per_family = 12;
  cfg.num_related_families = 6;
  cfg.compounds_per_family = 60;
  cfg.seq_len_mean = 320;
  cfg.seq_len_jitter = 40;
  cfg.target_min_atoms = 18;
  cfg.target_max_atoms = 24;
  cfg.seed = 20250707;
  cfg.build_keyword_index = false;  // not part of the measured query
  cfg.build_vector_store = false;

  ScalingSetup s;
  s.config = cfg;
  s.data = core::build_ncnpr_data(cfg, num_ranks);

  // Physical (compound, protein) candidate rows ~= reviewed inhibitor
  // edges; scale them up to the paper's ~66M comparisons.
  const double physical_rows =
      static_cast<double>(cfg.num_families * cfg.compounds_per_family) * 2.0 *
      cfg.reviewed_fraction;
  s.row_multiplier = 66.0e6 / physical_rows;
  return s;
}

/// Engine options matching the paper's Cray EX runs at `nodes` nodes
/// (32 ranks/node), with the calibrated operator overhead that produces
/// Fig 4(b)'s scan/join plateau.
inline core::EngineOptions scaling_engine_options(int nodes,
                                                  double row_multiplier) {
  core::EngineOptions opts;
  opts.topology = runtime::Topology::cray_ex(nodes);
  opts.row_multiplier = row_multiplier;
  // Stage populations match the paper: SW/pIC50 run at candidate-set scale
  // (row_multiplier, ~66M logical), DTBA at "thousands of inferences"
  // scale (physical calls x20), docking on the real distinct compounds.
  opts.udf_call_multiplier["ncnpr.dtba"] = 5.0;
  opts.costs.sw_seconds_per_cell = 4.5e-9;  // ~0.46 ms per comparison
  opts.costs.operator_overhead_seconds = 1.35;
  return opts;
}

/// The measured query (§5.1): reviewed proteins -> inhibitor compounds ->
/// SW/pIC50/DTBA filter chain -> docking on the distinct survivors.
inline core::Query scaling_query(const core::NcnprData& data,
                                 bool with_docking) {
  core::NcnprThresholds t;
  t.min_sw_similarity = 0.90;
  t.min_pic50 = 4.5;
  t.min_dtba = 7.0;  // tuned so ~55 distinct compounds reach docking
  return core::make_ncnpr_query(data, t, with_docking);
}

/// Runs one warmup query (no docking) so module-load costs are paid and
/// UDF profiles exist — the paper measures a long-running, profiled
/// instance, and §2.4's optimizations need profile data.
inline void warmup(core::IdsEngine* engine, const core::NcnprData& data) {
  core::Query q = scaling_query(data, /*with_docking=*/false);
  (void)engine->execute(q);
}

inline void print_stage_table(const core::QueryResult& r) {
  std::printf("    %-22s %10s\n", "stage", "seconds");
  for (const auto& st : r.stages) {
    if (st.seconds < 0.0005) continue;
    std::printf("    %-22s %10.2f\n", st.stage.c_str(), st.seconds);
  }
}

}  // namespace ids::bench
