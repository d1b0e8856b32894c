#pragma once

// Streaming statistics accumulator behind the per-category summary of
// the trace text report (telemetry::spans_to_text_report).

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>

namespace ids {

/// Accumulates count/min/max/mean/variance without storing samples.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
    // Welford's online algorithm.
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::size_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  /// One-line summary (`n=5 mean=1.2 min=0.5 max=2 sd=0.6`) for text
  /// reports — telemetry::Tracer::to_text_report() builds on this.
  std::string to_string() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "n=%zu mean=%.6g min=%.6g max=%.6g sd=%.6g",
                  n_, mean(), min(), max(), stddev());
    return buf;
  }

 private:
  std::size_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace ids
