#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "telemetry/metrics.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Recorder::timed(const std::string& name, const std::string& layer,
                       const std::function<void()>& fn) {
  if (!enabled_) {
    double t = now_s();
    fn();
    return now_s() - t;
  }
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(id);
  double start = now_s();
  fn();
  double end = now_s();
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].start = start - t0_;
  spans_[static_cast<std::size_t>(id)].end = end - t0_;
  if (!layer.empty()) layers_[layer] += end - start;
  return end - start;
}

void Recorder::max(const std::string& layer, double v) {
  double& slot = fixed_[layer];
  slot = std::max(slot, v);
}

bool Recorder::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%llu}%s\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t* h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (word >> (8 * i)) & 0xffu;
    *h *= kFnvPrime;
  }
}

void mix(std::uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= kFnvPrime;
  }
  mix(h, s.size());
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

}  // namespace

std::string Digest::text() const {
  char buf[128];
  std::snprintf(buf, sizeof buf, "rows=%zu modeled=%.9f rows_hash=%016llx modeled_hash=%016llx",
                rows, modeled_seconds, static_cast<unsigned long long>(rows_hash),
                static_cast<unsigned long long>(modeled_hash));
  return buf;
}

Digest digest(const ids::core::QueryResult& r) {
  const auto& t = r.solutions;
  const std::size_t ni = t.id_vars().size();
  const std::size_t nn = t.num_vars().size();
  std::vector<std::vector<std::uint64_t>> rows(t.num_rows());
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    auto& out = rows[row];
    out.reserve(ni + nn);
    for (std::size_t c = 0; c < ni; ++c) out.push_back(t.id_at(row, static_cast<int>(c)));
    for (std::size_t c = 0; c < nn; ++c) out.push_back(bits(t.num_at(row, static_cast<int>(c))));
  }
  std::sort(rows.begin(), rows.end());
  Digest d;
  d.rows = rows.size();
  d.rows_hash = kFnvOffset;
  for (const auto& v : t.id_vars()) mix(&d.rows_hash, v);
  for (const auto& v : t.num_vars()) mix(&d.rows_hash, v);
  for (const auto& row : rows) {
    for (std::uint64_t w : row) mix(&d.rows_hash, w);
  }
  d.modeled_hash = kFnvOffset;
  for (const auto& st : r.stages) {
    mix(&d.modeled_hash, st.stage);
    mix(&d.modeled_hash, bits(st.seconds));
  }
  mix(&d.modeled_hash, bits(r.total_seconds));
  d.modeled_seconds = r.total_seconds;
  return d;
}

Checker::Checker(const Args& args) : args_(args) {
  // ncnpr-cache builds the same graph at every seed (the seed only orders
  // the sweep), so its reference applies to every seed.
  const bool seed_free = args.workload == "ncnpr-cache";
  if ((args.seed != kDefaultSeed && !seed_free) || args.reference_dir.empty()) return;
  std::ifstream in(args.reference_dir + "/" + args.workload + ".ref");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    expected_[line.substr(0, sp)] = line.substr(sp + 1);
  }
}

bool Checker::reference(const std::string& key, const Digest& d) {
  const std::string got = d.text();
  if (!args_.record.empty()) recorded_.emplace(key, got);
  auto it = expected_.find(key);
  if (it == expected_.end() || it->second == got) return true;
  std::fprintf(stderr, "reference mismatch %s:\n  want %s\n  got  %s\n",
               key.c_str(), it->second.c_str(), got.c_str());
  return false;
}

void Checker::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 20) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

bool Checker::corrupt_next() {
  ++answers_;
  return args_.corrupt_every > 0 &&
         answers_ % static_cast<std::uint64_t>(args_.corrupt_every) == 0;
}

bool Checker::write_record() const {
  std::ofstream out(args_.record);
  out << "# " << args_.workload << " answers at seed " << kDefaultSeed
      << ": sorted rows and modeled stage seconds\n";
  for (const auto& [key, value] : recorded_) out << key << ' ' << value << '\n';
  return static_cast<bool>(out);
}

void corrupt(ids::core::QueryResult* r) {
  auto& t = r->solutions;
  if (t.num_rows() > 0) {
    std::vector<char> keep(t.num_rows(), 1);
    keep[0] = 0;
    t.filter_rows(keep);
  } else {
    r->total_seconds += 1e-3;
  }
}

std::uint64_t run_passes(Context& ctx, double seconds,
                         const std::function<void()>& pass) {
  const double deadline = now_s() + seconds;
  std::uint64_t n = 0;
  do {
    double t = now_s();
    pass();
    ctx.samples.pass.push_back(now_s() - t);
    ++n;
  } while (now_s() < deadline);
  return n;
}

void repeat_setup(Context& ctx, const std::function<double()>& once) {
  double total = 0.0;
  std::size_t n = 0;
  do {
    ctx.rec.next_op();
    const double s = once();
    ctx.samples.setup.push_back(s);
    total += s;
    ++n;
  } while (n < kMinSetups || (total < kMinSetupSeconds && n < kMaxSetups));
}

void measure(Context& ctx, const std::function<void()>& pass,
             const std::function<void()>& start_tracing) {
  ctx.rec.set_enabled(false);
  if (!ctx.args.trace) {
    run_passes(ctx, ctx.args.seconds, pass);
    return;
  }
  auto& q = ctx.samples.query;
  run_passes(ctx, ctx.args.seconds / 2, pass);
  const auto untraced = static_cast<std::ptrdiff_t>(q.size());
  ctx.rec.set_enabled(true);
  start_tracing();
  ctx.passes_traced = run_passes(ctx, ctx.args.seconds / 2, pass);
  ctx.rec.set("telemetry.untraced_query_p50_s",
              median(std::vector<double>(q.begin(), q.begin() + untraced)));
  ctx.samples.traced_query_p50 = median(std::vector<double>(q.begin() + untraced, q.end()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

ids::telemetry::Histogram* pool_wait() {
  return ids::telemetry::MetricsRegistry::global().histogram(
      "ids_threadpool_task_wait_seconds",
      ids::telemetry::latency_seconds_buckets());
}

double pool_tasks() {
  return static_cast<double>(ids::telemetry::MetricsRegistry::global()
                                 .counter("ids_threadpool_tasks_total")
                                 ->value());
}

}  // namespace

PoolDelta::PoolDelta() : tasks0_(pool_tasks()), wait0_(pool_wait()->sum()) {}

void PoolDelta::finish(Recorder& rec) const {
  rec.add("common.pool.tasks", pool_tasks() - tasks0_);
  rec.add("common.pool.task_wait_s", pool_wait()->sum() - wait0_);
}

void account_layers(Recorder& rec, const ids::core::QueryResult& r) {
  for (const auto& st : r.account.stages) {
    std::string kind = st.stage.substr(0, st.stage.find(':'));
    rec.add("core.stage." + kind + ".wall_s", st.wall_seconds);
  }
  rec.add("core.query.wall_s", r.account.wall_seconds);
  rec.add("runtime.rows_partitioned", static_cast<double>(r.account.rows_partitioned));
  rec.add("runtime.rows_gathered", static_cast<double>(r.account.rows_gathered));
  rec.max("runtime.peak_solution_bytes", static_cast<double>(r.account.peak_solution_bytes));
}

namespace {

const char* const kUdfs[] = {"ncnpr.sw_similarity", "ncnpr.pic50", "ncnpr.dtba",
                             "ncnpr.dock"};

}  // namespace

std::map<std::string, double> udf_counts(const ids::udf::UdfProfiler& p) {
  std::map<std::string, double> out;
  for (const char* name : kUdfs) {
    ids::udf::UdfStats s = p.aggregate(name);
    out[std::string("udf.") + name + ".execs"] = static_cast<double>(s.execs);
    out[std::string("udf.") + name + ".rejects"] = static_cast<double>(s.rejects);
  }
  return out;
}

void add_udf_delta(Recorder& rec, const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after) {
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    rec.add(k, v - (it == before.end() ? 0.0 : it->second));
  }
}

const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = [] {
    std::vector<std::pair<std::string, std::string>> u = {
        {"core.query.wall_s", "s"},
        {"core.plan.conjuncts_s", "s"},
        {"core.plan.estimate_s", "s"},
        {"core.plan.patterns_s", "s"},
        {"core.parse_s", "s"},
    };
    for (const char* st : {"scan", "join", "keyword", "vector", "rebalance", "filter",
                           "distinct", "invoke", "gather"}) {
      u.emplace_back(std::string("core.stage.") + st + ".wall_s", "s");
    }
    u.emplace_back("udf.aggregate_us", "us");
    for (const char* name : kUdfs) {
      u.emplace_back(std::string("udf.") + name + ".execs", "count");
      u.emplace_back(std::string("udf.") + name + ".rejects", "count");
    }
    for (const char* m : {"sw", "pic50", "dtba", "dock"}) {
      u.emplace_back(std::string("models.") + m + ".calls", "count");
      u.emplace_back(std::string("models.") + m + ".s", "s");
    }
    for (const char* c : {"cache.gets", "cache.puts", "cache.misses",
                          "cache.hits.local_dram", "cache.hits.local_ssd",
                          "cache.hits.remote_dram", "cache.hits.remote_ssd",
                          "cache.hits.backing", "cache.spills"}) {
      u.emplace_back(c, "count");
    }
    u.emplace_back("cache.hit_ratio", "ratio");
    u.emplace_back("cache.bytes_read", "bytes");
    u.emplace_back("cache.bytes_written", "bytes");
    u.emplace_back("runtime.rows_partitioned", "count");
    u.emplace_back("runtime.rows_gathered", "count");
    u.emplace_back("runtime.peak_solution_bytes", "bytes");
    u.emplace_back("common.pool.tasks", "count");
    u.emplace_back("common.pool.task_wait_s", "s");
    u.emplace_back("store.keyword_s", "s");
    u.emplace_back("store.vector_exact_s", "s");
    u.emplace_back("store.ivf_build_s", "s");
    u.emplace_back("store.ivf_topk_s", "s");
    u.emplace_back("store.freeze_s", "s");
    u.emplace_back("graph.finalize_s", "s");
    u.emplace_back("graph.update_s", "s");
    u.emplace_back("datagen.generate_s", "s");
    for (const char* k : {"keyword", "vector", "join", "feature", "pic50", "sw", "ivf"}) {
      u.emplace_back(std::string("explore.") + k + ".share", "ratio");
    }
    u.emplace_back("telemetry.untraced_query_p50_s", "s");
    u.emplace_back("telemetry.traced_query_p50_s", "s");
    u.emplace_back("trace_overhead_frac", "ratio");
    return u;
  }();
  return units;
}

}  // namespace perfbench
