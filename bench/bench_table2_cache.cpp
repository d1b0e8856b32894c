// Reproduces Table 2: NCNPR query times across Smith-Waterman selectivity
// thresholds, without and with the global distributed cache.
//
// Paper reference values (§5.2, 2 compute nodes + memory-server nodes):
//
//   threshold  compounds  uncached (s)  cached (s)
//     0.99        56         47.49         8.99
//     0.90        56         47.66         8.5
//     0.80        57         47.87        10.51
//     0.70        57         47.86         9.06
//     0.60        57         48.08         8.3
//     0.50        57         51.7          9.23
//     0.40        121       358.76        28.93
//     0.20       1129      3847.07       242.85
//
// Shape to reproduce: flat while the candidate set is the target clade,
// superlinear growth as diverse (bigger, slower-docking) compounds enter,
// and a 5-15x end-to-end improvement from caching whose cached time is
// dominated by the per-artifact (de)serialization bottleneck (§8).

#include <cstdio>
#include <memory>

#include "core/workflow.h"

namespace {

ids::datagen::LifeSciConfig table2_config() {
  using namespace ids;
  datagen::LifeSciConfig cfg;
  cfg.num_families = 24;
  cfg.num_related_families = 20;
  cfg.proteins_per_family = 10;
  cfg.compounds_per_family = 55;
  cfg.seq_len_mean = 280;
  cfg.seq_len_jitter = 30;
  cfg.seed = 20251116;
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  // Family 1 sits just above the 0.40 threshold; families 2..20 fill the
  // 0.20-0.40 band, so the sweep admits ~55 -> ~110 -> ~1150 compounds.
  cfg.related_divergences = {0.455};
  for (int f = 2; f <= 20; ++f) {
    cfg.related_divergences.push_back(0.50 +
                                      0.14 * static_cast<double>(f - 2) / 18.0);
  }
  // Off-clade compounds are bigger and dock disproportionately slower.
  cfg.offfamily_min_atoms = 36;
  cfg.offfamily_max_atoms = 68;
  cfg.cross_family_edges = 0.0;  // keep the high-threshold rows flat
  return cfg;
}

}  // namespace

int main() {
  using namespace ids;
  std::printf("=== Table 2: query times vs Smith-Waterman threshold ===\n");
  std::printf("paper: 47.5->3847 s uncached, 9->243 s cached (5-15x)\n\n");

  // The paper's 52-node cluster hosts the cache; the IDS instance for this
  // experiment runs on two compute nodes (2 x 64 ranks), with docking at
  // exhaustiveness 4 (cost rate doubled to keep per-ligand seconds
  // calibrated; see EXPERIMENTS.md).
  const runtime::Topology topo = runtime::Topology::cache_testbed(2, 2);
  models::DockingParams dock_params;
  dock_params.exhaustiveness = 2;

  datagen::LifeSciConfig cfg = table2_config();
  core::NcnprData data = core::build_ncnpr_data(cfg, topo.num_ranks());

  auto run_query = [&](double threshold, cache::CacheManager* cache,
                       bool repeat) {
    core::EngineOptions opts;
    opts.topology = topo;
    opts.costs.docking_seconds_per_unit *= 4.0;  // exhaustiveness 2 vs 8
    opts.cache = cache;
    core::IdsEngine engine(opts, data.triples.get(), data.features.get());
    core::register_ncnpr_udfs(&engine, data, dock_params);

    core::NcnprThresholds t;
    t.min_sw_similarity = threshold;
    t.min_pic50 = 4.0;  // Table 2 sweeps only the SW threshold
    t.min_dtba = 4.0;
    core::Query q =
        core::make_ncnpr_query(data, t, true, /*docking_cached=*/cache != nullptr);
    core::QueryResult r = engine.execute(q);
    if (repeat) r = engine.execute(q);  // the measured, cache-warm pass
    return r;
  };

  std::printf("%12s %10s %18s %16s %9s\n", "Selectivity", "Compounds",
              "w/out caching (s)", "with caching (s)", "speedup");

  for (double threshold : {0.99, 0.90, 0.80, 0.70, 0.60, 0.50, 0.40, 0.20}) {
    core::QueryResult uncached = run_query(threshold, nullptr, false);

    // Fresh cache per threshold row, as in the paper's per-row repeats:
    // first pass populates, second pass measures the cached query.
    cache::CacheConfig cc;
    cc.num_nodes = topo.total_nodes();
    cc.dram_capacity_bytes = 512ull << 20;
    cc.ssd_capacity_bytes = 4ull << 30;
    cc.serialization_service_seconds = 0.21;  // §8 serialization bottleneck
    cache::CacheManager cache(cc);
    core::QueryResult cached = run_query(threshold, &cache, true);

    std::printf("%12.2f %10zu %18.2f %16.2f %8.1fx\n", threshold,
                static_cast<std::size_t>(uncached.account.udf_invocations),
                uncached.total_seconds,
                cached.total_seconds,
                uncached.total_seconds / cached.total_seconds);
  }
  return 0;
}
