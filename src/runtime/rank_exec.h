#pragma once

// Execution of per-rank work.
//
// Ranks in this reproduction are first-class objects rather than OS
// processes: the engine keeps a vector of per-rank state and executes
// "for each rank: f(rank)" steps. Real computation runs on a thread pool
// (so multi-core hosts still parallelize), while *modeled* time accrues on
// each rank's VirtualClock. This preserves the SPMD structure of the
// paper's MPI implementation — the bulk-synchronous pattern of local work
// followed by collectives — with a deterministic, laptop-runnable core.

#include <cstddef>
#include <functional>

namespace ids::runtime {

/// Runs fn(rank) for every rank in [0, num_ranks), in parallel over the
/// global thread pool. fn must only touch rank-local state (plus read-only
/// shared state), mirroring the isolation of MPI ranks. Every rank
/// invocation runs inside a telemetry::ProfileScope named `scope`, so the
/// sampling profiler attributes worker-thread time to the operator that
/// scheduled it. `scope` must be a string literal (or otherwise outlive
/// the process-global profiler).
void for_each_rank(int num_ranks, const char* scope,
                   const std::function<void(int)>& fn);

}  // namespace ids::runtime
