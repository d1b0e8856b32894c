#pragma once

// The globally shared, multi-tier, client-side cache (§3).
//
// Every cluster node (compute and dedicated memory nodes alike) contributes
// DRAM and optionally local SSD to a single cluster-wide cache. The DRAM
// tier is fabric-attached memory that the paper reaches through OpenFAM
// (§3.3); here each DRAM write or read is priced as one OpenFAM transfer
// between the caller and the owner node's memory server (intra-node when
// they share a node, fabric otherwise), so remote hits pay RDMA-modelled
// costs and locality is a first-class, queryable property. When DRAM
// fills, least-recently-used objects spill to the owner node's SSD tier;
// when SSD fills, copies are dropped — authoritative data always remains
// in the persistent backing store (the DAOS/Lustre stand-in), so a node
// failure loses only cached copies, never data.
//
// Each object is stored once: its directory entry holds the value and the
// artifact's modeled size. Every put writes through, so the directory also
// indexes the backing store, and the tiers keep records, not bytes: one
// LRU position per copy. Every transfer is priced from the modeled size.
//
// Read path (cheapest first): local DRAM -> local SSD -> remote DRAM ->
// remote SSD -> backing store -> miss (caller recomputes and put()s).
// get() reports the tier that served each read, so a caller can account
// for its own traffic. Metadata lives in a directory sharded by object id
// across nodes; a lookup whose directory shard is remote pays a
// small-message round trip.

#include <array>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cache/object_id.h"
#include "cache/stats.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "sim/fabric.h"
#include "sim/virtual_clock.h"
#include "telemetry/metrics.h"

namespace ids::cache {

enum class TierKind { kDram, kSsd };

struct Location {
  int node = -1;
  TierKind tier = TierKind::kDram;
  friend bool operator==(const Location&, const Location&) = default;
};

/// The tier that served a get(), in read-path order.
enum class ReadTier { kLocalDram, kLocalSsd, kRemoteDram, kRemoteSsd, kBacking };
inline constexpr std::size_t kNumReadTiers = 5;

/// "local_dram", "local_ssd", "remote_dram", "remote_ssd" or "backing".
const char* read_tier_name(ReadTier tier);

/// One served get(): the stored value, the tier that served it and the
/// object's modeled size, which is what the read was charged for.
struct CacheRead {
  std::string value;
  ReadTier tier = ReadTier::kLocalDram;
  std::uint64_t size = 0;
};

struct CacheConfig {
  int num_nodes = 1;
  std::uint64_t dram_capacity_bytes = 8ull << 20;
  std::uint64_t ssd_capacity_bytes = 64ull << 20;
  sim::FabricParams fabric;
  /// Disables the SSD tier entirely (DRAM evictions drop instead of spill).
  bool enable_ssd = true;
  /// Serialization/deserialization service time per cached artifact,
  /// modeled as a single shared server: concurrent requests queue. The
  /// paper calls this out explicitly ("Significant latency is incurred due
  /// to the serialization required to stash objects", §8) and it is what
  /// makes cached query time grow linearly with candidate count in
  /// Table 2. 0 disables the bottleneck.
  double serialization_service_seconds = 0.0;
  /// Registry the manager reports ids_cache_* metrics into; nullptr means
  /// telemetry::MetricsRegistry::global().
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Instance label on every metric (`cache="..."`), so multiple caches
  /// stay distinguishable in one registry. Empty = auto-assigned
  /// "cache<N>".
  std::string name;
};

/// Placement hint for put(): pin the first copy to a specific node
/// ("user-provided hints or operator-defined policies", §3.2).
struct PlacementHint {
  int target_node = -1;  // -1: the writing node
};

class CacheManager {
 public:
  explicit CacheManager(CacheConfig config);

  const CacheConfig& config() const { return config_; }

  /// Stores `value` under `name` as an artifact of `size` modeled bytes
  /// (at least value.size()), cached on the hint node (default: the
  /// caller's node) and written through to backing storage. Charges
  /// `clock` for every modeled transfer, the writer `node` paying for
  /// the move to the hint node. Overwrites any existing object.
  void put(sim::VirtualClock& clock, int node, std::string_view name,
           std::string value, std::uint64_t size, PlacementHint hint = {})
      IDS_EXCLUDES(mutex_);

  /// Fetches the object, charging `clock` for the cheapest available path,
  /// and reports the tier that served it. nullopt = total miss (never put);
  /// the caller is expected to recompute and put().
  std::optional<CacheRead> get(sim::VirtualClock& clock, int node,
                               std::string_view name) IDS_EXCLUDES(mutex_);

  /// Locality query: where are copies of this object right now? (§3.2)
  std::vector<Location> locations(std::string_view name) const
      IDS_EXCLUDES(mutex_);

  /// The cheapest node to read the object from `from_node`'s perspective,
  /// or -1 if the object is only in the backing store / absent.
  int nearest_node_with(std::string_view name, int from_node) const
      IDS_EXCLUDES(mutex_);

  /// Drops every cached copy held by `node` (its DRAM and its SSD).
  /// Backing-store contents are unaffected; the next get() re-populates
  /// from backing, which is the paper's recovery story.
  void fail_node(int node) IDS_EXCLUDES(mutex_);

  /// Snapshot of the counters since the last reset_stats(). The live
  /// counters are telemetry registry instruments (monotonic, shared with
  /// the Prometheus exposition); this returns their delta against the
  /// baseline captured by reset_stats(), so existing exact-count tests
  /// keep working while the registry view never rewinds.
  CacheStats stats() const IDS_EXCLUDES(mutex_);
  void reset_stats() IDS_EXCLUDES(mutex_);

  std::uint64_t dram_used(int node) const IDS_EXCLUDES(mutex_);
  std::uint64_t ssd_used(int node) const IDS_EXCLUDES(mutex_);
  std::size_t num_objects() const IDS_EXCLUDES(mutex_);

 private:
  struct Meta {
    std::string name;
    std::string value;
    std::uint64_t size = 0;  // modeled bytes; prices every transfer
    std::vector<Location> copies;
  };
  struct NodeState {
    std::list<ObjectId> dram_lru;  // front = most recently used
    std::unordered_map<ObjectId, std::list<ObjectId>::iterator, ObjectIdHash>
        dram_pos;
    std::uint64_t dram_used = 0;
    std::list<ObjectId> ssd_lru;
    std::unordered_map<ObjectId, std::list<ObjectId>::iterator, ObjectIdHash>
        ssd_pos;
    std::uint64_t ssd_used = 0;
  };

  int directory_node(ObjectId id) const {
    return static_cast<int>(id.value % static_cast<std::uint64_t>(config_.num_nodes));
  }
  /// Charges the metadata round trip when the directory shard is remote.
  /// Reads only immutable config, so it needs no lock of its own.
  void charge_directory_lookup(sim::VirtualClock& clock, int node,
                               ObjectId id) const;
  /// Charges one OpenFAM transfer of `size` bytes between `caller_node`
  /// and the memory server on `owner_node`: intra-node when they match,
  /// fabric otherwise. Reads only immutable config.
  void charge_fam(sim::VirtualClock& clock, int caller_node, int owner_node,
                  std::uint64_t size) const;

  /// Charges the per-artifact (de)serialization latency.
  /// No-op when serialization_service_seconds is 0.
  ///
  /// IDS_MAY_BLOCK: this models a round trip to the *shared* serialization
  /// service the paper calls out as the cache bottleneck (§8) — in a real
  /// deployment it stalls on the service queue, so it must never run with
  /// mutex_ held (the [blocking-under-lock] analyzer rule enforces this;
  /// get()/put() charge it outside their critical sections).
  void charge_serialization(sim::VirtualClock& clock) IDS_MAY_BLOCK;

  /// get() body; charge_serialization of the fetched artifact is the
  /// caller's job, outside the critical section.
  std::optional<CacheRead> get_locked(sim::VirtualClock& clock, int node,
                                      std::string_view name)
      IDS_REQUIRES(mutex_);

  // All helpers below require mutex_ held (machine-checked under Clang).
  // The placement helpers return Status instead of asserting: a directory
  // entry that went missing is *recoverable* (the authoritative copy lives
  // in the backing store), so the public operations degrade to an
  // uncached read/write instead of aborting.
  void touch_dram(int node, ObjectId id) IDS_REQUIRES(mutex_);
  void touch_ssd(int node, ObjectId id) IDS_REQUIRES(mutex_);
  /// Places a DRAM copy on `node`; `writer_node` pays the FAM write.
  Status insert_dram(sim::VirtualClock& clock, int writer_node, int node,
                     ObjectId id, Meta& meta) IDS_REQUIRES(mutex_);
  Status evict_dram_lru(sim::VirtualClock& clock, int node)
      IDS_REQUIRES(mutex_);
  Status insert_ssd(int node, ObjectId id, Meta& meta) IDS_REQUIRES(mutex_);
  void drop_copy(ObjectId id, Meta& meta, const Location& loc)
      IDS_REQUIRES(mutex_);
  void remove_copy_record(Meta& meta, const Location& loc)
      IDS_REQUIRES(mutex_);

  /// ids_cache_* instruments in the configured registry, labeled with
  /// this cache's instance name. Resolved once at construction; the
  /// increments themselves are lock-free atomics.
  struct Telemetry {
    std::array<telemetry::Counter*, kNumReadTiers> hits;  // by ReadTier
    telemetry::Counter* misses;
    telemetry::Counter* puts;
    telemetry::Counter* spills_to_ssd;
    telemetry::Counter* ssd_drops;
    telemetry::Counter* bytes_read;
    telemetry::Counter* bytes_written;
  };

  /// Counts a read served by `tier` and returns it.
  CacheRead served(const Meta& meta, ReadTier tier) const;

  /// Current absolute values of the registry counters as a CacheStats.
  CacheStats counters_snapshot() const;

  CacheConfig config_;
  Telemetry tele_;
  mutable Mutex mutex_;
  std::unordered_map<ObjectId, Meta, ObjectIdHash> directory_
      IDS_GUARDED_BY(mutex_);
  std::vector<NodeState> nodes_ IDS_GUARDED_BY(mutex_);
  /// Counter values at the last reset_stats(); stats() reports the delta.
  CacheStats baseline_ IDS_GUARDED_BY(mutex_);
};

}  // namespace ids::cache
