#pragma once

// Cache instrumentation: where did reads get served, what moved where.

#include <cstdint>
#include <string>

namespace ids::cache {

struct CacheStats {
  // Read path, by serving tier.
  std::uint64_t hits_local_dram = 0;
  std::uint64_t hits_local_ssd = 0;
  std::uint64_t hits_remote_dram = 0;
  std::uint64_t hits_remote_ssd = 0;
  std::uint64_t hits_backing = 0;   // served by persistent backing store
  std::uint64_t misses = 0;         // not even in backing: caller recomputes

  // Write / movement path.
  std::uint64_t puts = 0;
  std::uint64_t spills_to_ssd = 0;  // DRAM eviction demoted a copy to SSD
  std::uint64_t ssd_drops = 0;      // SSD eviction dropped a cached copy

  std::uint64_t bytes_read = 0;     // modeled bytes
  std::uint64_t bytes_written = 0;

  std::uint64_t total_hits() const {
    return hits_local_dram + hits_local_ssd + hits_remote_dram +
           hits_remote_ssd + hits_backing;
  }
  /// Hits served from cache tiers (excluding the backing store).
  std::uint64_t cache_tier_hits() const {
    return total_hits() - hits_backing;
  }

  /// Field-wise difference against an earlier snapshot of the same
  /// monotonic counters. CacheManager::stats() is implemented as
  /// `live_counters.since(baseline)` — the live counters come from the
  /// telemetry registry and never reset, so reset_stats() just moves the
  /// baseline.
  CacheStats since(const CacheStats& baseline) const {
    CacheStats d;
    d.hits_local_dram = hits_local_dram - baseline.hits_local_dram;
    d.hits_local_ssd = hits_local_ssd - baseline.hits_local_ssd;
    d.hits_remote_dram = hits_remote_dram - baseline.hits_remote_dram;
    d.hits_remote_ssd = hits_remote_ssd - baseline.hits_remote_ssd;
    d.hits_backing = hits_backing - baseline.hits_backing;
    d.misses = misses - baseline.misses;
    d.puts = puts - baseline.puts;
    d.spills_to_ssd = spills_to_ssd - baseline.spills_to_ssd;
    d.ssd_drops = ssd_drops - baseline.ssd_drops;
    d.bytes_read = bytes_read - baseline.bytes_read;
    d.bytes_written = bytes_written - baseline.bytes_written;
    return d;
  }

  std::string to_string() const;
};

}  // namespace ids::cache
