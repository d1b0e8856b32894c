#include "fam/fam.h"

#include "common/check.h"

namespace ids::fam {

FamService::FamService(FamOptions options) : options_(std::move(options)) {
  IDS_CHECK(!options_.server_nodes.empty());
  auto& registry = options_.metrics != nullptr
                       ? *options_.metrics
                       : telemetry::MetricsRegistry::global();
  puts_total_ = registry.counter("ids_fam_puts_total");
  gets_total_ = registry.counter("ids_fam_gets_total");
  bytes_written_total_ = registry.counter("ids_fam_written_bytes_total");
  bytes_read_total_ = registry.counter("ids_fam_read_bytes_total");
  alloc_failures_total_ = registry.counter("ids_fam_alloc_failures_total");
  server_failures_total_ = registry.counter("ids_fam_server_failures_total");
  servers_.reserve(options_.server_nodes.size());
  for (int node : options_.server_nodes) {
    Server s;
    s.node = node;
    servers_.push_back(std::move(s));
  }
}

sim::Nanos FamService::transfer_cost(int caller_node, int server,
                                     std::uint64_t bytes) const {
  // Reads only the immutable node mapping, so it is safe both under
  // mutex_ (from put/get) and without it (public cost queries).
  const auto& link = (caller_node == server_node(server))
                         ? options_.fabric.intra_node
                         : options_.fabric.inter_node;
  return link.transfer_cost(bytes);
}

Result<Descriptor> FamService::allocate(std::string_view name,
                                        std::uint64_t size,
                                        int preferred_server) {
  MutexLock lock(mutex_);
  std::string key(name);
  if (names_.contains(key)) {
    return Status::AlreadyExists("fam allocation exists: " + key);
  }

  int server = -1;
  if (preferred_server >= 0) {
    if (preferred_server >= num_servers()) {
      return Status::InvalidArgument("no such fam server");
    }
    const auto& s = servers_[static_cast<std::size_t>(preferred_server)];
    if (s.alive && s.used + size <= options_.server_capacity_bytes) {
      server = preferred_server;
    }
  }
  if (server < 0) {
    // Least-loaded live server with room.
    std::uint64_t best_used = ~0ull;
    for (int i = 0; i < num_servers(); ++i) {
      const auto& s = servers_[static_cast<std::size_t>(i)];
      if (!s.alive) continue;
      if (s.used + size > options_.server_capacity_bytes) continue;
      if (s.used < best_used) {
        best_used = s.used;
        server = i;
      }
    }
  }
  if (server < 0) {
    alloc_failures_total_->inc();
    return Status::ResourceExhausted("no fam server can hold " +
                                     std::to_string(size) + " bytes");
  }

  auto& s = servers_[static_cast<std::size_t>(server)];
  Descriptor d{server, next_region_++, size};
  s.regions.emplace(d.region, size);
  s.used += size;
  names_.emplace(std::move(key), d);
  return d;
}

Status FamService::deallocate(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = names_.find(std::string(name));
  if (it == names_.end()) {
    return Status::NotFound("fam allocation not found");
  }
  Descriptor d = it->second;
  names_.erase(it);
  auto& s = servers_[static_cast<std::size_t>(d.server)];
  auto rit = s.regions.find(d.region);
  if (rit != s.regions.end()) {
    s.used -= rit->second;
    s.regions.erase(rit);
  }
  return Status::Ok();
}

Result<Descriptor> FamService::lookup(std::string_view name) const {
  MutexLock lock(mutex_);
  auto it = names_.find(std::string(name));
  if (it == names_.end()) {
    return Status::NotFound("fam allocation not found: " + std::string(name));
  }
  return it->second;
}

Result<std::uint64_t> FamService::region_length(const Descriptor& d) const {
  if (!d.valid() || d.server >= num_servers()) {
    return Status::InvalidArgument("invalid fam descriptor");
  }
  const auto& s = servers_[static_cast<std::size_t>(d.server)];
  if (!s.alive) return Status::Unavailable("fam server is down");
  auto rit = s.regions.find(d.region);
  if (rit == s.regions.end()) {
    return Status::NotFound("fam region gone (server failure?)");
  }
  return rit->second;
}

Status FamService::put(sim::VirtualClock& clock, int caller_node,
                       const Descriptor& d) {
  MutexLock lock(mutex_);
  ASSIGN_OR_RETURN(const std::uint64_t length, region_length(d));
  clock.advance(transfer_cost(caller_node, d.server, length));
  puts_total_->inc();
  bytes_written_total_->inc(length);
  return Status::Ok();
}

Status FamService::get(sim::VirtualClock& clock, int caller_node,
                       const Descriptor& d) const {
  MutexLock lock(mutex_);
  ASSIGN_OR_RETURN(const std::uint64_t length, region_length(d));
  clock.advance(transfer_cost(caller_node, d.server, length));
  gets_total_->inc();
  bytes_read_total_->inc(length);
  return Status::Ok();
}

void FamService::fail_server(int server) {
  server_failures_total_->inc();
  MutexLock lock(mutex_);
  auto& s = servers_[static_cast<std::size_t>(server)];
  s.alive = false;
  s.regions.clear();
  s.used = 0;
  // Name records for lost allocations are dropped so the names can be
  // re-allocated after recovery. Descriptors clients still hold dangle and
  // fail at access time — matching real FAM semantics.
  for (auto it = names_.begin(); it != names_.end();) {
    if (it->second.server == server) {
      it = names_.erase(it);
    } else {
      ++it;
    }
  }
}

void FamService::recover_server(int server) {
  MutexLock lock(mutex_);
  servers_[static_cast<std::size_t>(server)].alive = true;
}

}  // namespace ids::fam
