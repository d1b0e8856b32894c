#pragma once

// Virtual time base for the whole simulation.
//
// All modeled durations are integer nanoseconds. Integer time keeps the
// simulation deterministic (no floating-point accumulation drift across
// differently-ordered reductions) while still resolving the sub-microsecond
// costs of cache hits and the tens-of-seconds costs of docking runs.

#include <cstdint>

namespace ids::sim {

/// A point or span of modeled time, in nanoseconds.
using Nanos = std::uint64_t;

constexpr Nanos kNanosPerMicro = 1000ull;
constexpr Nanos kNanosPerMilli = 1000ull * 1000ull;
constexpr Nanos kNanosPerSecond = 1000ull * 1000ull * 1000ull;

constexpr Nanos from_micros(double us) {
  return static_cast<Nanos>(us * static_cast<double>(kNanosPerMicro));
}
constexpr Nanos from_millis(double ms) {
  return static_cast<Nanos>(ms * static_cast<double>(kNanosPerMilli));
}
constexpr Nanos from_seconds(double s) {
  return static_cast<Nanos>(s * static_cast<double>(kNanosPerSecond));
}
constexpr double to_seconds(Nanos ns) {
  return static_cast<double>(ns) / static_cast<double>(kNanosPerSecond);
}

}  // namespace ids::sim
