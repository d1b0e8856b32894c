#pragma once

// OpenFAM-style disaggregated memory (§3.3).
//
// The paper's global cache moves data over RDMA through OpenFAM: named
// allocations on memory servers and descriptor-based put/get. This module
// reproduces what the model needs of that surface: FamService owns a set
// of memory servers (each mapped to a cluster node id), allocations are
// named regions with capacity accounting, and every put/get moves a whole
// region and charges the caller's virtual clock with the alpha-beta cost
// of its length (intra-node when caller and server share a node, fabric
// otherwise). A region records only its length; the bytes it models live
// with the cache object that owns it.
//
// Server failure drops the server's contents (fabric-attached memory in
// this prototype is not persistent) — exactly the failure model the cache
// layer must tolerate by re-populating from backing storage.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "sim/fabric.h"
#include "sim/virtual_clock.h"
#include "telemetry/metrics.h"

namespace ids::fam {

/// Identifies one allocation; opaque to clients, like an OpenFAM
/// Fam_Descriptor.
struct Descriptor {
  int server = -1;
  std::uint64_t region = 0;
  std::uint64_t size = 0;

  bool valid() const { return server >= 0; }
};

struct FamOptions {
  /// Cluster node id of each memory server (index = server id).
  std::vector<int> server_nodes;
  std::uint64_t server_capacity_bytes = 64ull << 20;
  sim::FabricParams fabric;
  /// Registry the service reports ids_fam_* metrics into; nullptr means
  /// telemetry::MetricsRegistry::global().
  telemetry::MetricsRegistry* metrics = nullptr;
};

class FamService {
 public:
  explicit FamService(FamOptions options);

  // Server count and node mapping are fixed at construction, so these read
  // the immutable options rather than the guarded server table.
  int num_servers() const {
    return static_cast<int>(options_.server_nodes.size());
  }
  int server_node(int server) const {
    return options_.server_nodes[static_cast<std::size_t>(server)];
  }

  /// Allocates `size` bytes under `name` on `preferred_server` (or the
  /// least-loaded live server when -1). Fails with kResourceExhausted when
  /// no live server has room, kAlreadyExists on a name collision.
  Result<Descriptor> allocate(std::string_view name, std::uint64_t size,
                              int preferred_server = -1) IDS_EXCLUDES(mutex_);

  /// Frees the named allocation (no-op cost; metadata only).
  Status deallocate(std::string_view name) IDS_EXCLUDES(mutex_);

  /// Finds an existing allocation by name.
  Result<Descriptor> lookup(std::string_view name) const IDS_EXCLUDES(mutex_);

  /// Writes the whole region, charging `clock` with the transfer cost of
  /// its length from `caller_node` to the owning server.
  Status put(sim::VirtualClock& clock, int caller_node, const Descriptor& d)
      IDS_EXCLUDES(mutex_);

  /// Reads the whole region, charging `clock` likewise.
  Status get(sim::VirtualClock& clock, int caller_node,
             const Descriptor& d) const IDS_EXCLUDES(mutex_);

  /// Crashes a server: all its allocations disappear, capacity returns
  /// when it is recovered.
  void fail_server(int server) IDS_EXCLUDES(mutex_);
  /// Brings a failed server back empty.
  void recover_server(int server) IDS_EXCLUDES(mutex_);

  /// Transfer cost between a caller node and a server, exposed so the
  /// cache layer prices placements consistently.
  sim::Nanos transfer_cost(int caller_node, int server,
                           std::uint64_t bytes) const;

 private:
  struct Server {
    int node;
    bool alive = true;
    std::uint64_t used = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> regions;  // id -> length
  };

  /// The length of `d`'s region, or why the region cannot be accessed.
  Result<std::uint64_t> region_length(const Descriptor& d) const
      IDS_REQUIRES(mutex_);

  const FamOptions options_;  // immutable after construction

  // ids_fam_* instruments, resolved once at construction (lock-free on
  // the data path; counted only for operations that succeed).
  telemetry::Counter* puts_total_;
  telemetry::Counter* gets_total_;
  telemetry::Counter* bytes_written_total_;
  telemetry::Counter* bytes_read_total_;
  telemetry::Counter* alloc_failures_total_;
  telemetry::Counter* server_failures_total_;

  mutable Mutex mutex_;
  std::vector<Server> servers_ IDS_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Descriptor> names_ IDS_GUARDED_BY(mutex_);
  std::uint64_t next_region_ IDS_GUARDED_BY(mutex_) = 1;
};

}  // namespace ids::fam
