// IDS end-to-end benchmark driver binary. perfbench/run.py builds it and
// passes the arguments; see perfbench/README.md.
//
//   ids_perfbench --workload ncnpr-scale|ncnpr-cache|explore --seed N
//                 --seconds S --trace 0|1 [--out-dir DIR]
//                 [--reference-dir DIR] [--record FILE]
//                 [--corrupt-every N] [--commit ID] [--source-digest HEX]
//
// Prints a readable report, then the provenance stamp, then as its last
// line the JSON result {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 2 on bad arguments or a non-Release build.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;

int usage(const char* why) {
  std::fprintf(stderr, "ids_perfbench: %s\n", why);
  return 2;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a->trace = std::string(v) == "1";
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--reference-dir") a->reference_dir = v;
    else if (k == "--record") a->record = v;
    else if (k == "--corrupt-every") a->corrupt_every = std::atoi(v);
    else if (k == "--commit") a->commit = v;
    else if (k == "--source-digest") a->source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string provenance(const Args& a) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"build_type\":\"%s\",\"simd\":\"%s\",\"nproc\":%u,\"pool_threads\":%zu,"
                "\"commit\":\"%s\",\"source_digest\":\"%s\",\"workload\":\"%s\",\"seed\":%llu,"
                "\"seconds\":%g,\"trace\":%d}",
                PERFBENCH_BUILD_TYPE, ids::simd::level_name(ids::simd::active_level()),
                std::thread::hardware_concurrency(), ids::ThreadPool::global().size(),
                a.commit.c_str(), a.source_digest.c_str(), a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
  return buf;
}

std::vector<Metric> end_to_end(const perfbench::Samples& s) {
  using perfbench::median;
  return {
      {"setup_s", median(s.setup), "s"},
      {"wall_s", median(s.pass), "s"},
      {"query_p50_s", median(s.query), "s"},
      {"query_p90_s", perfbench::percentile(s.query, 0.90), "s"},
      {"cold_query_p50_s", median(s.cold), "s"},
      {"warm_query_p50_s", median(s.warm), "s"},
      {"update_p50_s", median(s.update), "s"},
      {"peak_rss_mb", perfbench::peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(perfbench::Context& ctx) {
  const auto& sums = ctx.rec.sums();
  auto sum = [&sums](const std::string& k) {
    auto it = sums.find(k);
    return it == sums.end() ? 0.0 : it->second;
  };
  const double passes = static_cast<double>(std::max<std::uint64_t>(ctx.passes_traced, 1));
  const double setups = static_cast<double>(std::max<std::size_t>(ctx.samples.setup.size(), 1));
  const double gets = sum("cache.gets");
  const double hits = sum("cache.hits.local_dram") + sum("cache.hits.local_ssd") +
                      sum("cache.hits.remote_dram") + sum("cache.hits.remote_ssd") +
                      sum("cache.hits.backing");
  const double untraced = ctx.rec.fixed().count("telemetry.untraced_query_p50_s")
                              ? ctx.rec.fixed().at("telemetry.untraced_query_p50_s")
                              : 0.0;
  ctx.rec.set("cache.hit_ratio", gets > 0 ? hits / gets : 0.0);
  ctx.rec.set("telemetry.traced_query_p50_s", ctx.samples.traced_query_p50);
  ctx.rec.set("trace_overhead_frac",
              untraced > 0 ? ctx.samples.traced_query_p50 / untraced - 1.0 : 0.0);

  std::vector<Metric> out;
  for (const auto& [name, unit] : perfbench::layer_units()) {
    double v = 0.0;
    if (auto it = ctx.rec.fixed().find(name); it != ctx.rec.fixed().end()) {
      v = it->second;
    } else if (sums.count("setup." + name)) {
      v = sum("setup." + name) / setups;
    } else {
      v = sum(name) / passes;
    }
    out.push_back({name, v, unit});
  }
  return out;
}

std::string json_result(const perfbench::Context& ctx, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ctx.check.failed() == 0 && ctx.check.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ctx.check.attempted());
  out += ", \"failed\": " + std::to_string(ctx.check.failed());
  out += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) return usage("bad arguments (see the file comment)");
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return usage("refusing to measure a non-Release build (" PERFBENCH_BUILD_TYPE ")");
  }
  perfbench::Context ctx(args);
  ctx.rec.set_enabled(args.trace);  // set-up spans; measure() takes over
  if (args.workload == "ncnpr-scale") {
    perfbench::run_scale(ctx);
  } else if (args.workload == "ncnpr-cache") {
    perfbench::run_cache(ctx);
  } else if (args.workload == "explore") {
    perfbench::run_explore(ctx);
  } else {
    return usage("unknown workload (ncnpr-scale, ncnpr-cache, explore)");
  }

  const perfbench::Samples& s = ctx.samples;
  if (s.setup.empty() || s.pass.empty() || s.query.empty() || s.cold.empty() ||
      s.warm.empty() || s.update.empty()) {
    std::fprintf(stderr, "ids_perfbench: a sample set is empty; no result\n");
    return 3;
  }
  const std::vector<Metric> metrics = args.trace ? per_layer(ctx) : end_to_end(s);
  const double failed_frac =
      static_cast<double>(ctx.check.failed()) / static_cast<double>(ctx.check.attempted());

  std::printf("workload %s  seed %llu  %s run\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");
  std::printf("  %-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto& m : metrics) {
    std::printf("  %-34s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %18.6f  of %llu attempted (%llu queries, %zu passes)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(ctx.check.attempted()),
              static_cast<unsigned long long>(s.query.size()), s.pass.size());

  if (args.trace && !args.out_dir.empty()) {
    const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (!ctx.rec.write_spans(base + "-spans.json")) {
      std::fprintf(stderr, "ids_perfbench: cannot write %s-spans.json\n", base.c_str());
      return 4;
    }
    if (std::FILE* f = std::fopen((base + "-layers.tsv").c_str(), "w")) {
      std::fprintf(f, "# %s\n", provenance(args).c_str());
      for (const auto& m : metrics) {
        std::fprintf(f, "%s\t%.9g\t%s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
      std::fclose(f);
    }
    std::printf("  spans and per-layer table written to %s-{spans.json,layers.tsv}\n",
                base.c_str());
  }
  if (!args.record.empty() && !ctx.check.write_record()) {
    std::fprintf(stderr, "ids_perfbench: cannot write %s\n", args.record.c_str());
    return 4;
  }
  std::printf("# provenance %s\n", provenance(args).c_str());
  std::printf("%s\n", json_result(ctx, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
