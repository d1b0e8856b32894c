#pragma once

// Per-rank UDF profiling (§2.4.1).
//
// For every UDF, each rank tracks exactly the three statistics the paper
// lists: (i) execution count, (ii) total execution time, and (iii) the
// number of query expressions rejected due to the UDF. The planner uses
// mean cost for chain reordering (§2.4.3) and per-rank throughput for
// solution re-balancing (§2.4.2). The store is continually updated over
// the lifetime of an IDS instance — stats persist across queries.
//
// Locking contract: the store is sharded by rank, one mutex per shard.
// A rank's record_* calls only touch its own shard (uncontended on the
// hot path). Planning does not read the live shards: it takes one
// ProfileSnapshot per query, which copies every shard once (one lock
// each), and then reads the copy without locks. The snapshot is exact
// because records happen only while FILTER and INVOKE evaluate, after
// planning.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "sim/time.h"
#include "telemetry/metrics.h"

namespace ids::udf {

struct UdfStats {
  std::uint64_t execs = 0;
  sim::Nanos total_time = 0;
  std::uint64_t rejects = 0;

  /// Mean modeled seconds per execution; 0 when never executed.
  double mean_cost_seconds() const {
    return execs == 0 ? 0.0
                      : sim::to_seconds(total_time) / static_cast<double>(execs);
  }

  /// Fraction of executions that rejected the enclosing expression —
  /// the planner's pruning-power estimate. 0 when never executed.
  double rejection_rate() const {
    return execs == 0 ? 0.0
                      : static_cast<double>(rejects) / static_cast<double>(execs);
  }

  void merge(const UdfStats& other) {
    execs += other.execs;
    total_time += other.total_time;
    rejects += other.rejects;
  }
};

/// Immutable copy of every rank's stats, taken by UdfProfiler::snapshot():
/// a dense ranks x UDFs array indexed by interned UDF id, plus per-UDF
/// totals. Planning reads one per query, so its per-rank estimates cost
/// O(1) each instead of a scan over all ranks.
class ProfileSnapshot {
 public:
  /// One UDF's stats on one rank; zeroed stats if never seen there.
  UdfStats get(int rank, std::string_view name) const;

  /// Stats aggregated over all ranks.
  UdfStats aggregate(std::string_view name) const;

  /// Executions a rank needs before its own mean is fully trusted. Below
  /// this, the estimate shrinks toward the cross-rank aggregate: with a
  /// handful of samples, per-rank means mostly reflect *which rows* the
  /// rank happened to evaluate (data skew), not how fast the rank is, and
  /// trusting them would let the re-balancer assign nearly all solutions
  /// to a rank whose one sampled row was cheap.
  static constexpr std::uint64_t kFullConfidenceExecs = 16;

  /// Estimated mean cost of one execution on `rank`: the rank's own mean,
  /// shrunk toward the cross-rank aggregate by sample count. Falls back to
  /// the aggregate (then 0) for unseen UDFs.
  double estimated_cost_seconds(int rank, std::string_view name) const;

 private:
  friend class UdfProfiler;

  std::map<std::string, std::size_t, std::less<>> ids_;  // name -> UDF id
  std::vector<UdfStats> totals_;    // per UDF id
  std::vector<UdfStats> per_rank_;  // rank-major, ranks x ids_.size()
};

class UdfProfiler {
 public:
  /// `metrics` mirrors every record into the registry — an
  /// ids_udf_exec_seconds{udf=...} histogram of modeled per-exec cost and
  /// an ids_udf_rejects_total{udf=...} counter — so UDF latency
  /// distributions appear in the Prometheus exposition alongside the
  /// planner's own per-rank store. nullptr disables mirroring.
  explicit UdfProfiler(int num_ranks,
                       telemetry::MetricsRegistry* metrics = nullptr)
      : metrics_(metrics), per_rank_(static_cast<std::size_t>(num_ranks)) {}

  int num_ranks() const { return static_cast<int>(per_rank_.size()); }

  /// Records one execution on `rank`. Safe to call concurrently from
  /// different ranks, and concurrently with cross-rank readers.
  void record_exec(int rank, std::string_view name, sim::Nanos cost);

  /// Records that `name`'s evaluation rejected an expression on `rank`.
  void record_reject(int rank, std::string_view name);

  /// Snapshot of one UDF's stats on one rank; zeroed stats if never seen
  /// there. (A copy, not a pointer: the entry may be updated
  /// concurrently by the owning rank.)
  UdfStats get(int rank, std::string_view name) const;

  /// Stats aggregated over all ranks (locks each shard in turn).
  UdfStats aggregate(std::string_view name) const;

  /// Copies every rank's stats, locking each shard once.
  ProfileSnapshot snapshot() const;

  void clear();

 private:
  /// A rank's registry instruments for one UDF, resolved on its first
  /// record there; afterwards a record touches only their atomics.
  struct Instruments {
    telemetry::Histogram* exec_seconds = nullptr;
    telemetry::Counter* rejects = nullptr;
  };

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::string, UdfStats> stats IDS_GUARDED_BY(mutex);
    std::unordered_map<std::string, Instruments> instruments
        IDS_GUARDED_BY(mutex);
  };

  Shard& shard_of(int rank) const {
    return per_rank_[static_cast<std::size_t>(rank)];
  }

  telemetry::MetricsRegistry* metrics_;
  // mutable: const readers (get/aggregate/snapshot) still lock the shard
  // mutexes.
  mutable std::vector<Shard> per_rank_;
};

}  // namespace ids::udf
