#pragma once

// Per-rank virtual clocks.
//
// The paper's evaluation runs on 2048-8192 MPI ranks; here each rank owns a
// VirtualClock that advances by *modeled* cost as it performs *real* (but
// laptop-scale) work. Collective operations synchronize clocks the same way
// an MPI barrier synchronizes ranks: everyone jumps to the maximum. The
// reported time of a query is therefore exactly the critical-path
// (max-over-ranks) time the paper measures.

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "sim/time.h"

namespace ids::sim {

/// One rank's modeled clock.
class VirtualClock {
 public:
  Nanos now() const { return now_; }
  void advance(Nanos ns) { now_ += ns; }
  /// Moves forward to `t` if `t` is later (never moves backwards).
  void raise_to(Nanos t) { now_ = std::max(now_, t); }
  void reset() { now_ = 0; }

 private:
  Nanos now_ = 0;
};

/// The set of clocks for every rank in a run, plus collective operations.
class ClockSet {
 public:
  explicit ClockSet(std::size_t num_ranks) : clocks_(num_ranks) {}

  std::size_t size() const { return clocks_.size(); }
  VirtualClock& at(std::size_t rank) { return clocks_[rank]; }
  const VirtualClock& at(std::size_t rank) const { return clocks_[rank]; }

  /// Barrier: all clocks jump to the current maximum. Returns that maximum.
  Nanos barrier() {
    Nanos m = max();
    for (auto& c : clocks_) c.raise_to(m);
    return m;
  }

  Nanos max() const {
    Nanos m = 0;
    for (const auto& c : clocks_) m = std::max(m, c.now());
    return m;
  }

  Nanos min() const {
    IDS_CHECK(!clocks_.empty());
    Nanos m = clocks_[0].now();
    for (const auto& c : clocks_) m = std::min(m, c.now());
    return m;
  }

  void reset() {
    for (auto& c : clocks_) c.reset();
  }

 private:
  std::vector<VirtualClock> clocks_;
};

}  // namespace ids::sim
