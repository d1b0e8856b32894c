#include "udf/profiler.h"

#include <algorithm>

namespace ids::udf {

UdfStats ProfileSnapshot::get(int rank, std::string_view name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return UdfStats{};
  return per_rank_[static_cast<std::size_t>(rank) * ids_.size() + it->second];
}

UdfStats ProfileSnapshot::aggregate(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? UdfStats{} : totals_[it->second];
}

double ProfileSnapshot::estimated_cost_seconds(int rank,
                                               std::string_view name) const {
  double agg_mean = aggregate(name).mean_cost_seconds();
  UdfStats s = get(rank, name);
  if (s.execs == 0) return agg_mean;
  double w = std::min(1.0, static_cast<double>(s.execs) /
                               static_cast<double>(kFullConfidenceExecs));
  return (1.0 - w) * agg_mean + w * s.mean_cost_seconds();
}

void UdfProfiler::record_exec(int rank, std::string_view name,
                              sim::Nanos cost) {
  Shard& shard = shard_of(rank);
  const std::string key(name);
  telemetry::Histogram* hist = nullptr;
  {
    MutexLock lock(shard.mutex);
    UdfStats& s = shard.stats[key];
    ++s.execs;
    s.total_time += cost;
    if (metrics_ != nullptr) hist = shard.instruments[key].exec_seconds;
  }
  if (metrics_ == nullptr) return;
  if (hist == nullptr) {
    // First exec of `name` on this rank. The registry takes its own
    // shard locks, so resolve outside ours.
    hist = metrics_->histogram("ids_udf_exec_seconds",
                               telemetry::latency_seconds_buckets(),
                               {{"udf", key}});
    MutexLock lock(shard.mutex);
    shard.instruments[key].exec_seconds = hist;
  }
  hist->observe(sim::to_seconds(cost));
}

void UdfProfiler::record_reject(int rank, std::string_view name) {
  Shard& shard = shard_of(rank);
  const std::string key(name);
  telemetry::Counter* rejects = nullptr;
  {
    MutexLock lock(shard.mutex);
    ++shard.stats[key].rejects;
    if (metrics_ != nullptr) rejects = shard.instruments[key].rejects;
  }
  if (metrics_ == nullptr) return;
  if (rejects == nullptr) {
    rejects = metrics_->counter("ids_udf_rejects_total", {{"udf", key}});
    MutexLock lock(shard.mutex);
    shard.instruments[key].rejects = rejects;
  }
  rejects->inc();
}

UdfStats UdfProfiler::get(int rank, std::string_view name) const {
  Shard& shard = shard_of(rank);
  MutexLock lock(shard.mutex);
  auto it = shard.stats.find(std::string(name));
  return it == shard.stats.end() ? UdfStats{} : it->second;
}

UdfStats UdfProfiler::aggregate(std::string_view name) const {
  const std::string key(name);
  UdfStats out;
  for (Shard& shard : per_rank_) {
    MutexLock lock(shard.mutex);
    auto it = shard.stats.find(key);
    if (it != shard.stats.end()) out.merge(it->second);
  }
  return out;
}

ProfileSnapshot UdfProfiler::snapshot() const {
  ProfileSnapshot snap;
  // One pass under each shard's lock interns the names; the dense array
  // is sized only once every UDF id is known.
  struct Entry {
    std::size_t rank;
    std::size_t id;
    UdfStats stats;
  };
  std::vector<Entry> entries;
  for (std::size_t r = 0; r < per_rank_.size(); ++r) {
    Shard& shard = per_rank_[r];
    MutexLock lock(shard.mutex);
    for (const auto& [name, stats] : shard.stats) {
      auto it = snap.ids_.try_emplace(name, snap.ids_.size()).first;
      entries.push_back({r, it->second, stats});
    }
  }
  const std::size_t k = snap.ids_.size();
  snap.totals_.assign(k, UdfStats{});
  snap.per_rank_.assign(per_rank_.size() * k, UdfStats{});
  for (const Entry& e : entries) {
    snap.per_rank_[e.rank * k + e.id] = e.stats;
    snap.totals_[e.id].merge(e.stats);
  }
  return snap;
}

void UdfProfiler::clear() {
  for (Shard& shard : per_rank_) {
    MutexLock lock(shard.mutex);
    shard.stats.clear();
  }
}

}  // namespace ids::udf
