#pragma once

// Per-query resource accounting.
//
// A QueryResourceAccount is assembled by the engine over one execute()
// call and answers "what did this query cost, and where": bytes pulled
// per cache tier, rows moved by the exchange layer, UDF model
// executions, the high-water mark of SolutionTable bytes, and — per
// stage — how far the modeled (virtual-clock) time diverged from host
// wall time. It is the engine's one record of a query; every other view
// is derived from it:
//
//   * QueryResult::account  — programmatic access for callers (and the
//                             source of QueryResult::stages/total_seconds);
//   * the trace root span   — attrs, so /tracez shows cost next to time;
//   * QueryRing             — one bounded ring of recent queries (account
//                             plus span tree) feeding /statusz and /tracez
//                             under one sequence.
//
// Everything here but the ring is plain data plus JSON rendering; the
// engine owns all mutation (single-threaded at barrier points), so the
// account itself needs no locking. Only the ring is thread-safe.

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/trace.h"

namespace ids::telemetry {

/// Modeled-vs-wall time for one engine stage.
struct StageAccount {
  std::string stage;          // "scan", "filter", "invoke", ...
  double modeled_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Positive when the harness spent more wall time than the model
  /// charged (overhead), negative when the model charges more than the
  /// host actually needed (simulated I/O, modeled FLOPs).
  double divergence_seconds() const { return wall_seconds - modeled_seconds; }
};

/// Bytes and hits served by one cache tier during the query.
struct TierBytes {
  std::string tier;  // "local_dram", "local_ssd", "remote_dram", ...
  std::uint64_t bytes_in = 0;  // payload bytes read from this tier
  std::uint64_t hits = 0;
};

/// Everything one query consumed. See file comment for the data flow.
struct QueryResourceAccount {
  std::uint64_t sequence = 0;  // 1-based completion index, ring-assigned

  std::vector<TierBytes> tiers;        // only tiers that served bytes
  std::uint64_t cache_bytes_written = 0;
  std::uint64_t cache_misses = 0;

  std::uint64_t rows_gathered = 0;     // rows merged at gather
  std::uint64_t rows_partitioned = 0;  // rows crossing ranks in exchanges
  std::uint64_t udf_invocations = 0;   // INVOKE model executions
  std::uint64_t peak_solution_bytes = 0;

  std::vector<StageAccount> stages;    // execution order
  double modeled_seconds = 0.0;        // whole-query modeled time
  double wall_seconds = 0.0;           // whole-query host time

  double divergence_seconds() const { return wall_seconds - modeled_seconds; }
  /// Cache gets served by any tier: the sum of tiers[].hits.
  std::uint64_t cache_hits() const;

  /// Deterministic single-object JSON (format_double doubles), e.g.
  /// {"sequence":3,"modeled_seconds":...,"tiers":[...],"stages":[...]}.
  std::string to_json() const;
};

/// Bounded ring of the most recent completed queries, feeding the obs
/// server's /statusz (accounts) and /tracez (span trees). The engine
/// pushes one entry per execute(); the oldest entry falls out once
/// `capacity` is reached. Thread-safe: queries push while HTTP scrapes
/// snapshot.
class QueryRing {
 public:
  explicit QueryRing(std::size_t capacity = 8);
  QueryRing(const QueryRing&) = delete;
  QueryRing& operator=(const QueryRing&) = delete;

  struct Entry {
    std::uint64_t sequence = 0;  // 1-based completion index
    QueryResourceAccount account;
    std::vector<Span> spans;     // empty when the query ran untraced
    std::uint64_t dropped = 0;   // the tracer's dropped-span count
  };

  /// Stores one query, stamping the entry's and the account's
  /// `sequence`, and returns that sequence number.
  std::uint64_t push(QueryResourceAccount account, std::vector<Span> spans,
                     std::uint64_t dropped) IDS_EXCLUDES(mutex_);

  /// Retained entries, oldest first.
  std::vector<Entry> snapshot() const IDS_EXCLUDES(mutex_);
  /// Entries ever pushed (>= retained count): the newest sequence.
  std::uint64_t total_pushed() const IDS_EXCLUDES(mutex_);

  /// {"total":N,"recent":[...]} with accounts newest first (/statusz).
  std::string to_json() const IDS_EXCLUDES(mutex_);
  /// Text report of every retained span tree, newest first, each under a
  /// "trace #<sequence>" header (/tracez).
  std::string to_text_report() const IDS_EXCLUDES(mutex_);
  /// Chrome JSON of the newest retained span tree (an empty trace when
  /// the ring is empty; /tracez?fmt=json).
  std::string to_chrome_json() const IDS_EXCLUDES(mutex_);

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::vector<Entry> entries_ IDS_GUARDED_BY(mutex_);  // oldest first
};

}  // namespace ids::telemetry
