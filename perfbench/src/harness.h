#pragma once

// Harness shared by the three workloads: command-line arguments, timing
// samples, the in-memory span recorder and per-layer table of the traced
// run, and the answer checker that feeds `attempted` / `failed`.
//
// Everything here runs on the benchmark's single client thread. The only
// code that runs on the engine's pool threads is the UDF timing wrapper
// (ncnpr.cpp), which touches atomics only.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"

namespace perfbench {

/// The seed whose answers are compared with the recorded references in
/// perfbench/reference/. Other seeds are checked by oracles only, except
/// on ncnpr-cache, whose inputs do not depend on the seed.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;         // spans + per-layer table (trace run)
  std::string reference_dir;   // perfbench/reference
  std::string record;          // write this run's answers as a reference
  int corrupt_every = 0;       // self-test: corrupt every N-th answer
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median (mean of the middle two for even counts); 0 for no samples.
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

/// One span of the traced run: [start, end) in seconds since the run
/// began, the enclosing span (-1 at the top) and the operation it served.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Spans and per-layer sums of the traced run. Disabled recorders cost one
/// branch per call and record nothing.
class Recorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new operation: spans opened from now on share its id.
  void next_op() { ++op_; }

  /// Runs `fn` inside span `name`; when `layer` is non-empty the span's
  /// duration is also added to that per-layer metric. Returns seconds.
  double timed(const std::string& name, const std::string& layer,
               const std::function<void()>& fn);

  /// Per-layer sums over the traced phase, reported per pass; keys
  /// starting with "setup." are reported per set-up, without the prefix.
  void add(const std::string& layer, double v) { layers_[layer] += v; }
  const std::map<std::string, double>& sums() const { return layers_; }
  /// Values reported as they are (ratios, maxima, per-call means).
  void set(const std::string& layer, double v) { fixed_[layer] = v; }
  void max(const std::string& layer, double v);
  const std::map<std::string, double>& fixed() const { return fixed_; }

  /// JSON array of spans, one object per line.
  bool write_spans(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  double t0_ = now_s();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> layers_;
  std::map<std::string, double> fixed_;
};

/// Order-independent fingerprint of a query answer: the rows sorted, and
/// the modeled clock (every stage's modeled seconds, bit for bit).
struct Digest {
  std::uint64_t rows_hash = 0;
  std::uint64_t modeled_hash = 0;
  std::size_t rows = 0;
  double modeled_seconds = 0.0;

  std::string text() const;
  bool operator==(const Digest&) const = default;
};

Digest digest(const ids::core::QueryResult& r);

/// Answer bookkeeping: every operation is attempted once and fails when it
/// errors or any check on its answer fails.
class Checker {
 public:
  explicit Checker(const Args& args);

  /// True when `d` matches the recorded reference for `key`, or when no
  /// reference applies (seed-dependent inputs at a non-default seed, or
  /// key not recorded).
  bool reference(const std::string& key, const Digest& d);

  /// Counts one operation; prints the first failures to stderr.
  void op(bool ok, const std::string& what);

  /// Self-test hook: true for every N-th answer when --corrupt-every N.
  bool corrupt_next();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Writes the recorded digests (--record); false on I/O error.
  bool write_record() const;

 private:
  const Args& args_;
  std::map<std::string, std::string> expected_;
  std::map<std::string, std::string> recorded_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t answers_ = 0;
};

/// Drops the first row of the answer, or nudges its modeled clock when it
/// has no rows: the corruption the self-test must see counted as failed.
void corrupt(ids::core::QueryResult* r);

/// Samples of one run, turned into the end-to-end metrics by main().
struct Samples {
  std::vector<double> setup, pass, query, cold, warm, update;
  double traced_query_p50 = 0.0;  // trace run: queries of the traced phase
};

/// Everything a workload needs.
struct Context {
  explicit Context(const Args& a) : args(a), check(a) {}
  const Args& args;
  Recorder rec;
  Checker check;
  Samples samples;
  std::uint64_t passes_traced = 0;
};

/// Runs complete passes until `seconds` have elapsed (at least one).
/// Returns the number of passes.
std::uint64_t run_passes(Context& ctx, double seconds,
                         const std::function<void()>& pass);

/// Repeats the workload's set-up at least kMinSetups times and until
/// kMinSetupSeconds of set-up have been measured (at most kMaxSetups
/// times), so that setup_s is a median over many builds. `once` replaces
/// the previous build and returns its seconds.
inline constexpr std::size_t kMinSetups = 5;
inline constexpr double kMinSetupSeconds = 5.0;
inline constexpr std::size_t kMaxSetups = 1000;
void repeat_setup(Context& ctx, const std::function<double()>& once);

/// The measured phase: complete passes for --seconds, untraced. A trace
/// run spends the first half untraced and the second half traced, calling
/// `start_tracing` in between, and records both halves' query medians.
void measure(Context& ctx, const std::function<void()>& pass,
             const std::function<void()>& start_tracing);

/// Peak resident set of the process, MiB.
double peak_rss_mb();

/// Adds per-pass deltas of the engine-wide instruments a workload cannot
/// see through its own calls (thread pool tasks and queue wait).
class PoolDelta {
 public:
  PoolDelta();
  void finish(Recorder& rec) const;

 private:
  double tasks0_ = 0.0;
  double wait0_ = 0.0;
};

/// Folds one query's resource account into the per-layer table: stage
/// walls by stage kind, rows moved, peak solution bytes.
void account_layers(Recorder& rec, const ids::core::QueryResult& r);

/// Per-UDF profiler counts (execs, rejects) keyed "udf.<name>.<count>".
std::map<std::string, double> udf_counts(const ids::udf::UdfProfiler& p);
void add_udf_delta(Recorder& rec, const std::map<std::string, double>& before,
                   const std::map<std::string, double>& after);

/// Every per-layer metric the trace run reports, so each workload prints
/// the same set (zero where a layer is not exercised).
const std::vector<std::pair<std::string, std::string>>& layer_units();

}  // namespace perfbench
