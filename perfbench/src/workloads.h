#pragma once

// The three workloads and the pieces they share. See perfbench/README.md
// for why each workload exists and which layers it stresses.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "core/workflow.h"
#include "deploy/service.h"
#include "harness.h"

namespace perfbench {

void run_scale(Context& ctx);    // "ncnpr-scale"
void run_cache(Context& ctx);    // "ncnpr-cache"
void run_explore(Context& ctx);  // "explore"

/// Seed of one generated input (graph, script, order), derived from --seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t salt);

/// Wall time and call counts of the four ncnpr.* models, measured by
/// wrapping their registered UdfFn in the traced phase.
struct ModelTimers {
  std::array<std::atomic<std::uint64_t>, 4> calls{};
  std::array<std::atomic<std::uint64_t>, 4> nanos{};

  /// Re-registers each ncnpr.* UDF of `engine` behind a timing wrapper.
  /// The wrapper forwards arguments and result unchanged, so modeled
  /// output is identical; `this` must outlive the engine's queries.
  void wrap(ids::core::IdsEngine* engine);
  /// Adds models.<name>.calls / .s to the per-layer sums.
  void report(Recorder& rec) const;
};

/// Times, from outside the engine, the planner calls one execute() makes
/// for `q`: pattern ordering, and per-rank conjunct ordering and
/// single-solution estimates against the engine's live profiles.
void replay_planner(Recorder& rec, ids::core::IdsEngine& engine,
                    const ids::graph::TripleStore& triples,
                    const ids::core::Query& q);

/// Times one UdfProfiler::aggregate() per ncnpr UDF; returns the mean
/// microseconds per call (udf.aggregate_us).
double time_aggregate(const ids::udf::UdfProfiler& profiler);

/// True when the store holds every fact in `facts` (terms by name): the
/// check on an update.
bool has_facts(const ids::graph::TripleStore& triples,
               const std::vector<ids::deploy::TripleUpdate>& facts);

}  // namespace perfbench
