#include "cache/manager.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/profiler.h"

namespace ids::cache {

namespace {

/// Distinct default instance label per cache in construction order, so two
/// caches sharing the global registry never merge their counters.
std::string next_cache_name() {
  static std::atomic<int> seq{0};
  return "cache" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

const char* read_tier_name(ReadTier tier) {
  switch (tier) {
    case ReadTier::kLocalDram: return "local_dram";
    case ReadTier::kLocalSsd: return "local_ssd";
    case ReadTier::kRemoteDram: return "remote_dram";
    case ReadTier::kRemoteSsd: return "remote_ssd";
    case ReadTier::kBacking: return "backing";
  }
  return "unknown";
}

CacheManager::CacheManager(CacheConfig config)
    : config_(std::move(config)),
      nodes_(static_cast<std::size_t>(config_.num_nodes)) {
  IDS_CHECK(config_.num_nodes > 0);
  if (config_.name.empty()) config_.name = next_cache_name();
  auto& registry = config_.metrics != nullptr
                       ? *config_.metrics
                       : telemetry::MetricsRegistry::global();
  for (std::size_t t = 0; t < kNumReadTiers; ++t) {
    tele_.hits[t] = registry.counter(
        "ids_cache_hits_total",
        {{"cache", config_.name},
         {"tier", read_tier_name(static_cast<ReadTier>(t))}});
  }
  auto cache_counter = [&](const char* metric) {
    return registry.counter(metric, {{"cache", config_.name}});
  };
  tele_.misses = cache_counter("ids_cache_misses_total");
  tele_.puts = cache_counter("ids_cache_puts_total");
  tele_.spills_to_ssd = cache_counter("ids_cache_spills_total");
  tele_.ssd_drops = cache_counter("ids_cache_ssd_drops_total");
  tele_.bytes_read = cache_counter("ids_cache_read_bytes_total");
  tele_.bytes_written = cache_counter("ids_cache_written_bytes_total");
}

CacheStats CacheManager::counters_snapshot() const {
  auto hits = [this](ReadTier t) {
    return tele_.hits[static_cast<std::size_t>(t)]->value();
  };
  CacheStats s;
  s.hits_local_dram = hits(ReadTier::kLocalDram);
  s.hits_local_ssd = hits(ReadTier::kLocalSsd);
  s.hits_remote_dram = hits(ReadTier::kRemoteDram);
  s.hits_remote_ssd = hits(ReadTier::kRemoteSsd);
  s.hits_backing = hits(ReadTier::kBacking);
  s.misses = tele_.misses->value();
  s.puts = tele_.puts->value();
  s.spills_to_ssd = tele_.spills_to_ssd->value();
  s.ssd_drops = tele_.ssd_drops->value();
  s.bytes_read = tele_.bytes_read->value();
  s.bytes_written = tele_.bytes_written->value();
  return s;
}

CacheStats CacheManager::stats() const {
  MutexLock lock(mutex_);
  return counters_snapshot().since(baseline_);
}

void CacheManager::reset_stats() {
  MutexLock lock(mutex_);
  baseline_ = counters_snapshot();
}

void CacheManager::charge_serialization(sim::VirtualClock& clock) {
  if (config_.serialization_service_seconds <= 0.0) return;
  // Per-operation (de)serialization latency on the caller. The *shared-
  // server queueing* effect of the single serialization service (which
  // caps aggregate throughput at 1/service ops/s) is modeled by the query
  // engine at stage level, where virtual arrival times are known — a
  // stateful queue here would be order-sensitive with respect to the
  // thread-pool execution order of ranks and break virtual-time causality.
  clock.advance(sim::from_seconds(config_.serialization_service_seconds));
}

void CacheManager::charge_directory_lookup(sim::VirtualClock& clock, int node,
                                           ObjectId id) const {
  if (directory_node(id) == node) return;
  // Small-message metadata round trip over the fabric.
  clock.advance(config_.fabric.inter_node.transfer_cost(64) * 2);
}

void CacheManager::charge_fam(sim::VirtualClock& clock, int caller_node,
                              int owner_node, std::uint64_t size) const {
  // Node i hosts memory server i, so the link is intra-node exactly when
  // the caller is the owner.
  const auto& link = caller_node == owner_node ? config_.fabric.intra_node
                                               : config_.fabric.inter_node;
  clock.advance(link.transfer_cost(size));
}

void CacheManager::touch_dram(int node, ObjectId id) {
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  auto it = ns.dram_pos.find(id);
  if (it == ns.dram_pos.end()) return;
  ns.dram_lru.erase(it->second);
  ns.dram_lru.push_front(id);
  it->second = ns.dram_lru.begin();
}

void CacheManager::touch_ssd(int node, ObjectId id) {
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  auto it = ns.ssd_pos.find(id);
  if (it == ns.ssd_pos.end()) return;
  ns.ssd_lru.erase(it->second);
  ns.ssd_lru.push_front(id);
  it->second = ns.ssd_lru.begin();
}

void CacheManager::remove_copy_record(Meta& meta, const Location& loc) {
  meta.copies.erase(std::remove(meta.copies.begin(), meta.copies.end(), loc),
                    meta.copies.end());
}

void CacheManager::drop_copy(ObjectId id, Meta& meta, const Location& loc) {
  auto& ns = nodes_[static_cast<std::size_t>(loc.node)];
  if (loc.tier == TierKind::kDram) {
    auto it = ns.dram_pos.find(id);
    if (it != ns.dram_pos.end()) {
      ns.dram_lru.erase(it->second);
      ns.dram_pos.erase(it);
      ns.dram_used -= meta.size;
    }
  } else {
    auto it = ns.ssd_pos.find(id);
    if (it != ns.ssd_pos.end()) {
      ns.ssd_lru.erase(it->second);
      ns.ssd_pos.erase(it);
      ns.ssd_used -= meta.size;
    }
  }
  remove_copy_record(meta, loc);
}

Status CacheManager::evict_dram_lru(sim::VirtualClock& clock, int node) {
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  if (ns.dram_lru.empty()) return Status::Ok();
  ObjectId victim = ns.dram_lru.back();
  auto dit = directory_.find(victim);
  if (dit == directory_.end()) {
    // The directory lost track of the LRU victim. Recover by dropping the
    // orphaned LRU entry (its bytes are unaccounted anyway) so the caller
    // can keep evicting instead of looping on the same victim.
    ns.dram_pos.erase(victim);
    ns.dram_lru.pop_back();
    return Status::Internal("DRAM LRU victim missing from cache directory");
  }
  Meta& meta = dit->second;

  // Demote to the same node's SSD (spill), or drop if SSD is disabled.
  drop_copy(victim, meta, Location{node, TierKind::kDram});
  if (config_.enable_ssd && meta.size <= config_.ssd_capacity_bytes) {
    clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size));
    RETURN_IF_ERROR(insert_ssd(node, victim, meta));
    tele_.spills_to_ssd->inc();
  }
  return Status::Ok();
}

Status CacheManager::insert_ssd(int node, ObjectId id, Meta& meta) {
  // Policy skips (tier disabled, object larger than the tier) are not
  // errors: the object simply stays wherever it already is.
  if (!config_.enable_ssd || meta.size > config_.ssd_capacity_bytes) {
    return Status::Ok();
  }
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  Location loc{node, TierKind::kSsd};
  if (ns.ssd_pos.contains(id)) return Status::Ok();  // already there
  while (ns.ssd_used + meta.size > config_.ssd_capacity_bytes &&
         !ns.ssd_lru.empty()) {
    ObjectId victim = ns.ssd_lru.back();
    auto dit = directory_.find(victim);
    if (dit == directory_.end()) {
      ns.ssd_pos.erase(victim);
      ns.ssd_lru.pop_back();
      return Status::Internal("SSD LRU victim missing from cache directory");
    }
    drop_copy(victim, dit->second, Location{node, TierKind::kSsd});
    tele_.ssd_drops->inc();
  }
  if (ns.ssd_used + meta.size > config_.ssd_capacity_bytes) {
    return Status::Ok();
  }
  ns.ssd_lru.push_front(id);
  ns.ssd_pos[id] = ns.ssd_lru.begin();
  ns.ssd_used += meta.size;
  meta.copies.push_back(loc);
  return Status::Ok();
}

Status CacheManager::insert_dram(sim::VirtualClock& clock, int writer_node,
                                 int node, ObjectId id, Meta& meta) {
  if (meta.size > config_.dram_capacity_bytes) {
    // Too big for the DRAM tier entirely; go straight to SSD.
    return insert_ssd(node, id, meta);
  }
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  if (ns.dram_pos.contains(id)) return Status::Ok();  // already resident
  while (ns.dram_used + meta.size > config_.dram_capacity_bytes &&
         !ns.dram_lru.empty()) {
    RETURN_IF_ERROR(evict_dram_lru(clock, node));
  }
  charge_fam(clock, writer_node, node, meta.size);
  ns.dram_lru.push_front(id);
  ns.dram_pos[id] = ns.dram_lru.begin();
  ns.dram_used += meta.size;
  meta.copies.push_back(Location{node, TierKind::kDram});
  return Status::Ok();
}

void CacheManager::put(sim::VirtualClock& clock, int node,
                       std::string_view name, std::string value,
                       std::uint64_t size, PlacementHint hint) {
  IDS_CHECK(size >= value.size());
  telemetry::ProfileScope profile_scope("cache.put");
  // Serialize the artifact *before* entering the critical section: the
  // serialization service is a shared blocking server (the paper's §8
  // bottleneck) and must not stall every other cache client behind
  // mutex_. Virtual-clock advances commute, so the modeled total is
  // unchanged.
  charge_serialization(clock);

  MutexLock lock(mutex_);
  ObjectId id = object_id(name);
  charge_directory_lookup(clock, node, id);

  auto [it, inserted] = directory_.try_emplace(id);
  Meta& meta = it->second;
  if (!inserted) {
    // Overwrite: drop all existing copies first.
    while (!meta.copies.empty()) drop_copy(id, meta, meta.copies.front());
  }
  meta.name = std::string(name);
  meta.value = std::move(value);
  meta.size = size;

  // Write through to the backing store: the authoritative copy.
  clock.advance(config_.fabric.backing_store.transfer_cost(size));

  int target = hint.target_node >= 0 ? hint.target_node : node;
  target = std::min(std::max(target, 0), config_.num_nodes - 1);
  Status placed = insert_dram(clock, node, target, id, meta);
  if (!placed.ok()) {
    // Degraded but recoverable: the object is still authoritative in the
    // backing store and will re-cache on a later get().
    IDS_WARN << "cache put of " << meta.name
             << " left uncached: " << placed.to_string();
  }

  tele_.puts->inc();
  tele_.bytes_written->inc(size);
}

std::optional<CacheRead> CacheManager::get(sim::VirtualClock& clock, int node,
                                           std::string_view name) {
  telemetry::ProfileScope profile_scope("cache.get");
  std::optional<CacheRead> hit;
  {
    MutexLock lock(mutex_);
    hit = get_locked(clock, node, name);
  }
  // Deserialize the fetched artifact outside the critical section (see
  // charge_serialization: the shared service blocks, and every hit tier
  // pays exactly one deserialization). Advances commute, so hoisting the
  // charge out of get_locked leaves the modeled total bit-identical.
  if (hit.has_value()) charge_serialization(clock);
  return hit;
}

CacheRead CacheManager::served(const Meta& meta, ReadTier tier) const {
  tele_.hits[static_cast<std::size_t>(tier)]->inc();
  tele_.bytes_read->inc(meta.size);
  return CacheRead{meta.value, tier, meta.size};
}

std::optional<CacheRead> CacheManager::get_locked(sim::VirtualClock& clock,
                                                  int node,
                                                  std::string_view name) {
  ObjectId id = object_id(name);
  charge_directory_lookup(clock, node, id);

  auto it = directory_.find(id);
  if (it == directory_.end()) {
    tele_.misses->inc();
    return std::nullopt;
  }
  Meta& meta = it->second;

  auto has_copy = [&meta](int n, TierKind t) {
    return std::find(meta.copies.begin(), meta.copies.end(),
                     Location{n, t}) != meta.copies.end();
  };

  // 1. Local DRAM.
  if (has_copy(node, TierKind::kDram)) {
    charge_fam(clock, node, node, meta.size);
    touch_dram(node, id);
    return served(meta, ReadTier::kLocalDram);
  }

  // 2. Local SSD.
  if (has_copy(node, TierKind::kSsd)) {
    clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size));
    touch_ssd(node, id);
    return served(meta, ReadTier::kLocalSsd);
  }

  // 3. Remote DRAM (deterministically the lowest-numbered owner).
  int remote_dram = -1;
  int remote_ssd = -1;
  for (const auto& loc : meta.copies) {
    if (loc.node == node) continue;
    if (loc.tier == TierKind::kDram) {
      if (remote_dram < 0 || loc.node < remote_dram) remote_dram = loc.node;
    } else {
      if (remote_ssd < 0 || loc.node < remote_ssd) remote_ssd = loc.node;
    }
  }
  if (remote_dram >= 0) {
    charge_fam(clock, node, remote_dram, meta.size);
    touch_dram(remote_dram, id);
    return served(meta, ReadTier::kRemoteDram);
  }

  // 4. Remote SSD: SSD read on the owner, then a fabric transfer.
  if (remote_ssd >= 0) {
    clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size) +
                  config_.fabric.inter_node.transfer_cost(meta.size));
    touch_ssd(remote_ssd, id);
    return served(meta, ReadTier::kRemoteSsd);
  }

  // 5. Backing store (authoritative: every put wrote through). Re-populate
  // the reader's DRAM so a failed node's working set rebuilds as it is
  // touched; the reader pays that write.
  clock.advance(config_.fabric.backing_store.transfer_cost(meta.size));
  CacheRead read = served(meta, ReadTier::kBacking);
  IDS_IGNORE_ERROR(insert_dram(clock, node, node, id, meta));
  return read;
}

std::vector<Location> CacheManager::locations(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return {};
  return it->second.copies;
}

int CacheManager::nearest_node_with(std::string_view name,
                                    int from_node) const {
  MutexLock lock(mutex_);
  auto it = directory_.find(object_id(name));
  if (it == directory_.end()) return -1;
  const Meta& meta = it->second;
  // Rank: local < remote DRAM < remote SSD; ties to the lower node id.
  int best = -1;
  int best_rank = 1 << 30;
  for (const auto& loc : meta.copies) {
    int rank;
    if (loc.node == from_node) {
      rank = loc.tier == TierKind::kDram ? 0 : 1;
    } else {
      rank = loc.tier == TierKind::kDram ? 2 : 3;
    }
    if (rank < best_rank || (rank == best_rank && loc.node < best)) {
      best_rank = rank;
      best = loc.node;
    }
  }
  return best;
}

void CacheManager::fail_node(int node) {
  MutexLock lock(mutex_);
  // Abrupt loss of the node's fabric-attached DRAM and local SSD.
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  ns = NodeState{};
  for (auto& [id, meta] : directory_) {
    meta.copies.erase(
        std::remove_if(meta.copies.begin(), meta.copies.end(),
                       [node](const Location& l) { return l.node == node; }),
        meta.copies.end());
  }
}

std::uint64_t CacheManager::dram_used(int node) const {
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].dram_used;
}

std::uint64_t CacheManager::ssd_used(int node) const {
  MutexLock lock(mutex_);
  return nodes_[static_cast<std::size_t>(node)].ssd_used;
}

std::size_t CacheManager::num_objects() const {
  MutexLock lock(mutex_);
  return directory_.size();
}

}  // namespace ids::cache
