#include "cache/manager.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/logging.h"
#include "telemetry/profiler.h"

namespace ids::cache {

namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::span<std::byte> as_writable_bytes(std::string& s) {
  return {reinterpret_cast<std::byte*>(s.data()), s.size()};
}

/// Distinct default instance label per cache in construction order, so two
/// caches sharing the global registry never merge their counters.
std::string next_cache_name() {
  static std::atomic<int> seq{0};
  return "cache" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

CacheManager::CacheManager(CacheConfig config)
    : config_(std::move(config)),
      nodes_(static_cast<std::size_t>(config_.num_nodes)) {
  IDS_CHECK(config_.num_nodes > 0);
  if (config_.name.empty()) config_.name = next_cache_name();
  auto& registry = config_.metrics != nullptr
                       ? *config_.metrics
                       : telemetry::MetricsRegistry::global();
  auto tier_hits = [&](const char* tier) {
    return registry.counter("ids_cache_hits_total",
                            {{"cache", config_.name}, {"tier", tier}});
  };
  tele_.hits_local_dram = tier_hits("local_dram");
  tele_.hits_local_ssd = tier_hits("local_ssd");
  tele_.hits_remote_dram = tier_hits("remote_dram");
  tele_.hits_remote_ssd = tier_hits("remote_ssd");
  tele_.hits_backing = tier_hits("backing");
  auto cache_counter = [&](const char* metric) {
    return registry.counter(metric, {{"cache", config_.name}});
  };
  tele_.misses = cache_counter("ids_cache_misses_total");
  tele_.puts = cache_counter("ids_cache_puts_total");
  tele_.spills_to_ssd = cache_counter("ids_cache_spills_total");
  tele_.ssd_drops = cache_counter("ids_cache_ssd_drops_total");
  tele_.bytes_read = cache_counter("ids_cache_read_bytes_total");
  tele_.bytes_written = cache_counter("ids_cache_written_bytes_total");
  auto tier_read_bytes = [&](const char* tier) {
    return registry.counter("ids_cache_tier_read_bytes_total",
                            {{"cache", config_.name}, {"tier", tier}});
  };
  tele_.read_bytes_local_dram = tier_read_bytes("local_dram");
  tele_.read_bytes_local_ssd = tier_read_bytes("local_ssd");
  tele_.read_bytes_remote_dram = tier_read_bytes("remote_dram");
  tele_.read_bytes_remote_ssd = tier_read_bytes("remote_ssd");
  tele_.read_bytes_backing = tier_read_bytes("backing");

  fam::FamOptions fam_opts;
  fam_opts.server_nodes.resize(static_cast<std::size_t>(config_.num_nodes));
  for (int i = 0; i < config_.num_nodes; ++i) {
    fam_opts.server_nodes[static_cast<std::size_t>(i)] = i;
  }
  fam_opts.server_capacity_bytes = config_.dram_capacity_bytes;
  fam_opts.fabric = config_.fabric;
  fam_opts.metrics = config_.metrics;
  fam_ = std::make_unique<fam::FamService>(std::move(fam_opts));
}

CacheStats CacheManager::counters_snapshot() const {
  CacheStats s;
  s.hits_local_dram = tele_.hits_local_dram->value();
  s.hits_local_ssd = tele_.hits_local_ssd->value();
  s.hits_remote_dram = tele_.hits_remote_dram->value();
  s.hits_remote_ssd = tele_.hits_remote_ssd->value();
  s.hits_backing = tele_.hits_backing->value();
  s.misses = tele_.misses->value();
  s.puts = tele_.puts->value();
  s.spills_to_ssd = tele_.spills_to_ssd->value();
  s.ssd_drops = tele_.ssd_drops->value();
  s.bytes_read = tele_.bytes_read->value();
  s.bytes_written = tele_.bytes_written->value();
  s.read_bytes_local_dram = tele_.read_bytes_local_dram->value();
  s.read_bytes_local_ssd = tele_.read_bytes_local_ssd->value();
  s.read_bytes_remote_dram = tele_.read_bytes_remote_dram->value();
  s.read_bytes_remote_ssd = tele_.read_bytes_remote_ssd->value();
  s.read_bytes_backing = tele_.read_bytes_backing->value();
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

std::string CacheManager::fam_name(ObjectId id, int node) {
  return "cache/" + std::to_string(id.value) + "/" + std::to_string(node);
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

bool CacheManager::read_dram_copy(sim::VirtualClock& clock, int reader_node,
                                  int owner_node, const Meta& meta,
                                  std::string* out) const {
  auto desc = fam_->lookup(fam_name(object_id(meta.name), owner_node));
  if (!desc.ok()) return false;
  out->resize(meta.size);
  Status st = fam_->get(clock, reader_node, desc.value(), 0,
                        as_writable_bytes(*out));
  return st.ok();
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
    // The FAM region may already be gone after fail_node(); either way
    // the copy record is dropped below.
    IDS_IGNORE_ERROR(fam_->deallocate(fam_name(id, loc.node)));
  } else {
    auto it = ns.ssd_pos.find(id);
    if (it != ns.ssd_pos.end()) {
      ns.ssd_lru.erase(it->second);
      ns.ssd_pos.erase(it);
      ns.ssd_data.erase(id);
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
  std::string payload;
  sim::VirtualClock scratch;  // local DRAM read folded into the SSD charge
  bool have = read_dram_copy(scratch, node, node, meta, &payload);
  drop_copy(victim, meta, Location{node, TierKind::kDram});
  if (have && config_.enable_ssd && meta.size <= config_.ssd_capacity_bytes) {
    clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size));
    RETURN_IF_ERROR(insert_ssd(node, victim, meta, std::move(payload)));
    tele_.spills_to_ssd->inc();
  }
  return Status::Ok();
}

Status CacheManager::insert_ssd(int node, ObjectId id, Meta& meta,
                                std::string payload) {
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
      ns.ssd_data.erase(victim);
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
  ns.ssd_data[id] = std::move(payload);
  ns.ssd_used += meta.size;
  meta.copies.push_back(loc);
  return Status::Ok();
}

Status CacheManager::insert_dram(sim::VirtualClock& clock, int node,
                                 ObjectId id, Meta& meta,
                                 const std::string& payload) {
  if (meta.size > config_.dram_capacity_bytes) {
    // Too big for the DRAM tier entirely; go straight to SSD.
    return insert_ssd(node, id, meta, payload);
  }
  auto& ns = nodes_[static_cast<std::size_t>(node)];
  if (ns.dram_pos.contains(id)) return Status::Ok();  // already resident
  while (ns.dram_used + meta.size > config_.dram_capacity_bytes &&
         !ns.dram_lru.empty()) {
    RETURN_IF_ERROR(evict_dram_lru(clock, node));
  }
  auto desc = fam_->allocate(fam_name(id, node), meta.size, node);
  if (!desc.ok()) return desc.status();
  Status st = fam_->put(clock, node, desc.value(), 0, as_bytes(payload));
  if (!st.ok()) {
    IDS_IGNORE_ERROR(fam_->deallocate(fam_name(id, node)));
    return st;
  }
  ns.dram_lru.push_front(id);
  ns.dram_pos[id] = ns.dram_lru.begin();
  ns.dram_used += meta.size;
  meta.copies.push_back(Location{node, TierKind::kDram});
  return Status::Ok();
}

void CacheManager::put(sim::VirtualClock& clock, int node,
                       std::string_view name, std::string payload,
                       PlacementHint hint) {
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
  meta.size = payload.size();

  // Write through to the backing store: the authoritative copy.
  clock.advance(config_.fabric.backing_store.transfer_cost(payload.size()));
  backing_[id] = payload;
  meta.in_backing = true;

  int target = hint.target_node >= 0 ? hint.target_node : node;
  target = std::min(std::max(target, 0), config_.num_nodes - 1);
  Status placed = insert_dram(clock, target, id, meta, payload);
  if (!placed.ok()) {
    // Degraded but recoverable: the object is still authoritative in the
    // backing store and will re-cache on a later get().
    IDS_WARN << "cache put of " << meta.name
             << " left uncached: " << placed.to_string();
  }

  tele_.puts->inc();
  tele_.bytes_written->inc(payload.size());
}

std::optional<std::string> CacheManager::get(sim::VirtualClock& clock,
                                             int node, std::string_view name) {
  telemetry::ProfileScope profile_scope("cache.get");
  std::optional<std::string> hit;
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

std::optional<std::string> CacheManager::get_locked(sim::VirtualClock& clock,
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

  std::string payload;

  // 1. Local DRAM.
  if (has_copy(node, TierKind::kDram) &&
      read_dram_copy(clock, node, node, meta, &payload)) {
    touch_dram(node, id);
    tele_.hits_local_dram->inc();
    tele_.bytes_read->inc(meta.size);
    tele_.read_bytes_local_dram->inc(meta.size);
    return payload;
  }

  // 2. Local SSD.
  if (has_copy(node, TierKind::kSsd)) {
    auto& ns = nodes_[static_cast<std::size_t>(node)];
    auto sit = ns.ssd_data.find(id);
    if (sit != ns.ssd_data.end()) {
      payload = sit->second;
      clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size));
      touch_ssd(node, id);
      tele_.hits_local_ssd->inc();
      tele_.bytes_read->inc(meta.size);
      tele_.read_bytes_local_ssd->inc(meta.size);
      return payload;
    }
    // Stale copy record (bytes vanished): drop it and fall through to the
    // remaining tiers instead of failing the read.
    drop_copy(id, meta, Location{node, TierKind::kSsd});
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
  if (remote_dram >= 0 &&
      read_dram_copy(clock, node, remote_dram, meta, &payload)) {
    touch_dram(remote_dram, id);
    tele_.hits_remote_dram->inc();
    tele_.bytes_read->inc(meta.size);
    tele_.read_bytes_remote_dram->inc(meta.size);
    return payload;
  }

  // 4. Remote SSD: SSD read on the owner, then a fabric transfer.
  if (remote_ssd >= 0 &&
      nodes_[static_cast<std::size_t>(remote_ssd)].ssd_data.contains(id)) {
    auto& ns = nodes_[static_cast<std::size_t>(remote_ssd)];
    payload = ns.ssd_data.at(id);
    clock.advance(config_.fabric.local_ssd.transfer_cost(meta.size) +
                  config_.fabric.inter_node.transfer_cost(meta.size));
    touch_ssd(remote_ssd, id);
    tele_.hits_remote_ssd->inc();
    tele_.bytes_read->inc(meta.size);
    tele_.read_bytes_remote_ssd->inc(meta.size);
    return payload;
  }

  // 5. Backing store (authoritative). Re-populate the reader's DRAM so a
  // failed node's working set rebuilds as it is touched.
  if (meta.in_backing) {
    auto bit = backing_.find(id);
    if (bit != backing_.end()) {
      payload = bit->second;
      clock.advance(config_.fabric.backing_store.transfer_cost(meta.size));
      tele_.hits_backing->inc();
      tele_.bytes_read->inc(meta.size);
      tele_.read_bytes_backing->inc(meta.size);
      // Best-effort re-population of the reader's DRAM.
      IDS_IGNORE_ERROR(insert_dram(clock, node, id, meta, payload));
      return payload;
    }
    // in_backing flag with no backing bytes: treat as the miss it is.
    meta.in_backing = false;
  }

  tele_.misses->inc();
  return std::nullopt;
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
  fam_->fail_server(node);
  fam_->recover_server(node);
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
