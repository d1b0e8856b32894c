// Reproduces Figure 4 (a) and (b) and Figure 5: NCNPR drug-repurposing
// query scaling at 64/128/256 nodes (2048/4096/8192 ranks).
//
// Paper reference values (§5.2):
//   total query time:      86 s / 72 s / 62 s
//   excluding docking:     43 s / 29 s / 19 s
//   docking dominates and does not scale (≈55 compounds, 31-44 s each,
//   thousands of idle ranks); FILTER scales well; scan/join/merge stop
//   scaling beyond ~128 nodes.
//   Fig 5: FILTER (Smith-Waterman + pIC50 + DTBA) takes ≈27 / 18.5 / 7.7 s,
//   with visible variance in DTBA predictions ("most ≈1 s, some longer").
//
// Fig 5 needs no run of its own: FILTER executes before DISTINCT and
// INVOKE, and docking records no DTBA executions, so its rows come out of
// the Fig 4 query unchanged.

#include <cstdio>

#include "scaling_common.h"

int main() {
  using namespace ids;
  std::printf("=== Figure 4: NCNPR drug re-purposing query scaling ===\n");
  std::printf("paper: total 86/72/62 s at 64/128/256 nodes; "
              "excluding docking 43/29/19 s\n\n");

  struct Row {
    int nodes;
    double total, docking, excluding, filter, scanjoin, rebalance;
    std::size_t compounds, survived;
  };
  std::vector<Row> rows;
  udf::UdfStats dtba_stats;

  for (int nodes : {64, 128, 256}) {
    bench::ScalingSetup setup =
        bench::make_scaling_setup(32 * nodes);  // 32 ranks/node
    core::EngineOptions opts =
        bench::scaling_engine_options(nodes, setup.row_multiplier);
    core::IdsEngine engine(opts, setup.data.triples.get(),
                           setup.data.features.get());
    core::register_ncnpr_udfs(&engine, setup.data);
    bench::warmup(&engine, setup.data);

    core::Query q = bench::scaling_query(setup.data, /*with_docking=*/true);
    core::QueryResult r = engine.execute(q);

    Row row;
    row.nodes = nodes;
    row.total = r.total_seconds;
    row.docking = r.stage_seconds("invoke:ncnpr.dock");
    row.excluding = r.seconds_excluding("invoke:ncnpr.dock");
    row.filter = r.stage_seconds("filter");
    row.scanjoin = r.stage_seconds("scan") + r.stage_seconds("join") +
                   r.stage_seconds("distinct") + r.stage_seconds("gather");
    row.rebalance = r.stage_seconds("rebalance");
    row.compounds = static_cast<std::size_t>(r.account.udf_invocations);
    row.survived = r.rows_after_filters;
    rows.push_back(row);
    if (nodes == 256) {
      dtba_stats = engine.profiler().aggregate("ncnpr.dtba");
    }

    std::printf("--- %d nodes (%d ranks), %zu compounds docked ---\n", nodes,
                32 * nodes, row.compounds);
    bench::print_stage_table(r);
    std::printf("\n");
  }

  std::printf("=== Fig 4(a): end-to-end query time ===\n");
  std::printf("%8s %12s %12s %14s\n", "nodes", "total (s)", "docking (s)",
              "excl. dock (s)");
  for (const auto& r : rows) {
    std::printf("%8d %12.1f %12.1f %14.1f\n", r.nodes, r.total, r.docking,
                r.excluding);
  }

  std::printf("\n=== Fig 4(b): stage breakdown ===\n");
  std::printf("%8s %14s %12s %14s\n", "nodes", "scan/join (s)", "filter (s)",
              "docking (s)");
  for (const auto& r : rows) {
    std::printf("%8d %14.1f %12.1f %14.1f\n", r.nodes, r.scanjoin, r.filter,
                r.docking);
  }

  // Shape assertions (who wins / how it scales), printed as a verdict so
  // regressions are obvious in CI logs.
  bool docking_dominates = true;
  bool docking_flat = rows.back().docking > 0.7 * rows.front().docking;
  bool nondock_scales = rows.back().excluding < rows.front().excluding;
  bool total_decreases = rows.back().total < rows.front().total;
  for (const auto& r : rows) {
    docking_dominates &= r.docking > r.excluding * 0.8;
  }
  std::printf("\nshape check: docking dominates=%s, docking flat=%s, "
              "non-docking scales=%s, total decreases=%s\n",
              docking_dominates ? "yes" : "NO", docking_flat ? "yes" : "NO",
              nondock_scales ? "yes" : "NO", total_decreases ? "yes" : "NO");

  std::printf("=== Figure 5: NCNPR FILTER stage scaling ===\n");
  std::printf("paper: ~27 / 18.5 / 7.7 s at 64 / 128 / 256 nodes\n\n");
  std::printf("%8s %12s %14s %16s\n", "nodes", "filter (s)", "rebalance (s)",
              "rows survived");
  for (const auto& r : rows) {
    std::printf("%8d %12.1f %14.2f %16zu\n", r.nodes, r.filter, r.rebalance,
                r.survived);
  }

  // DTBA per-call variance, the phenomenon Fig 5's discussion highlights.
  std::printf("\nDTBA profile at 256 nodes: %llu calls, mean %.2f s/call "
              "(slow tail raises some calls ~7x; see CostProfile)\n",
              static_cast<unsigned long long>(dtba_stats.execs),
              dtba_stats.mean_cost_seconds());

  bool filter_scales = rows[0].filter > rows[1].filter &&
                       rows[1].filter > rows[2].filter;
  std::printf("\nshape check: FILTER scales with nodes=%s "
              "(%.1f -> %.1f -> %.1f s)\n",
              filter_scales ? "yes" : "NO", rows[0].filter, rows[1].filter,
              rows[2].filter);
  return 0;
}
