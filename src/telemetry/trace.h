#pragma once

// Query tracer: a span tree per IdsEngine::execute (ISSUE 4 tentpole).
//
// Spans form a tree — query → stage → per-rank operator → per-call
// (UDF exec, cache get/put) — and every span carries TWO time ranges:
//
//   virt_start/virt_end — modeled virtual-clock time (sim::Nanos) on the
//                         timeline the span ran on. This is the time the
//                         simulation reports to the user, so the Chrome
//                         trace is laid out on the modeled clock.
//   wall_start/wall_end — host wall-clock nanoseconds, recorded so the
//                         overhead of the harness itself stays visible.
//
// Timelines map to Chrome trace "threads": tid 0 is the engine's barrier
// timeline (query + stage spans), tid r+1 is rank r's virtual clock.
//
// Exporters:
//   to_chrome_json()  — Chrome trace_event JSON ("X" complete events,
//                       ts/dur in microseconds of modeled time), loadable
//                       in chrome://tracing and Perfetto. args carry the
//                       exact integer modeled_ns plus all span attributes.
//   to_text_report()  — EXPLAIN ANALYZE-style indented tree with modeled
//                       and wall durations, plus a per-category summary
//                       built on common/stats.h RunningStats.
//
// Completed query trees (snapshot_tail()) are kept beside each query's
// resource account in telemetry::QueryRing (query_stats.h); /tracez
// renders them with the same two exporters.
//
// Thread safety: one Tracer may be shared by all ranks of a query; every
// public method locks the tracer mutex. Span recording is bounded by
// `max_spans` — past the cap new spans are dropped (counted, reported in
// both exports) rather than growing without bound on million-row queries.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/time.h"

namespace ids::telemetry {

class Counter;          // metrics.h
class MetricsRegistry;  // metrics.h

/// 1-based span handle; 0 means "no span" (parentless, or tracing off).
using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  std::string name;
  std::string category;  // "query", "stage", "rank", "udf", "cache", ...
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int rank = -1;  // -1 = engine barrier timeline, >= 0 = that rank's clock
  sim::Nanos virt_start = 0;
  sim::Nanos virt_end = 0;
  std::uint64_t wall_start_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  sim::Nanos virt_duration() const { return virt_end - virt_start; }
};

/// Chrome trace_event JSON for a span list (see Tracer::to_chrome_json).
/// Free function so ring-buffered snapshots (QueryRing, /tracez) render
/// with the exact same layout as a live Tracer.
std::string spans_to_chrome_json(const std::vector<Span>& spans,
                                 std::uint64_t dropped);

/// EXPLAIN ANALYZE-style indented text report for a span list (see
/// Tracer::to_text_report).
std::string spans_to_text_report(const std::vector<Span>& spans,
                                 std::uint64_t dropped);

class Tracer {
 public:
  /// `metrics` receives the ids_trace_dropped_spans_total counter (spans
  /// rejected by the max_spans cap); nullptr = the process-global
  /// registry. Resolved once here, so drops on the hot path are one
  /// lock-free increment.
  explicit Tracer(std::size_t max_spans = 1u << 16,
                  MetricsRegistry* metrics = nullptr);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Host wall clock in nanoseconds (steady). Exposed so callers can
  /// timestamp retroactive spans consistently with begin/end pairs.
  static std::uint64_t wall_now_ns();

  /// Opens a span at modeled time `virt_now`; wall start is sampled here.
  /// Returns kNoSpan when the span cap is hit (end_span/add_attr on
  /// kNoSpan are no-ops, so call sites stay unconditional).
  SpanId begin_span(std::string_view name, std::string_view category,
                    SpanId parent, int rank, sim::Nanos virt_now)
      IDS_EXCLUDES(mutex_);

  void end_span(SpanId id, sim::Nanos virt_now) IDS_EXCLUDES(mutex_);

  /// Records a completed span in one call (both time ranges supplied by
  /// the caller). Used where the span is only known after the fact.
  SpanId record_span(std::string_view name, std::string_view category,
                     SpanId parent, int rank, sim::Nanos virt_start,
                     sim::Nanos virt_end, std::uint64_t wall_start_ns,
                     std::uint64_t wall_end_ns) IDS_EXCLUDES(mutex_);

  void add_attr(SpanId id, std::string_view key, std::string_view value)
      IDS_EXCLUDES(mutex_);
  void add_attr(SpanId id, std::string_view key, std::uint64_t value)
      IDS_EXCLUDES(mutex_);
  void add_attr(SpanId id, std::string_view key, double value)
      IDS_EXCLUDES(mutex_);

  /// Spans recorded so far (completed or still open).
  std::size_t size() const IDS_EXCLUDES(mutex_);
  /// Spans rejected by the max_spans cap.
  std::uint64_t dropped() const IDS_EXCLUDES(mutex_);

  std::vector<Span> snapshot() const IDS_EXCLUDES(mutex_);
  /// Copy of the spans recorded at or after index `first` (0-based
  /// recording order). The engine uses size() before a query and
  /// snapshot_tail() after it to carve one query's tree out of a
  /// tracer shared across queries.
  std::vector<Span> snapshot_tail(std::size_t first) const
      IDS_EXCLUDES(mutex_);
  void clear() IDS_EXCLUDES(mutex_);

  std::string to_chrome_json() const IDS_EXCLUDES(mutex_);
  std::string to_text_report() const IDS_EXCLUDES(mutex_);

 private:
  Span* find_locked(SpanId id) IDS_REQUIRES(mutex_);

  const std::size_t max_spans_;
  Counter* dropped_counter_;  // ids_trace_dropped_spans_total
  mutable Mutex mutex_;
  std::vector<Span> spans_ IDS_GUARDED_BY(mutex_);
  std::uint64_t dropped_ IDS_GUARDED_BY(mutex_) = 0;
};

}  // namespace ids::telemetry
