#pragma once

// In-process observability HTTP server (ISSUE 9 tentpole).
//
// A deliberately tiny HTTP/1.1 responder on a dedicated thread: one
// blocking accept loop, one request per connection, `Connection: close`.
// It exists so a running engine can be inspected with nothing but curl:
//
//   /metrics   Prometheus text exposition of the metrics registry.
//   /statusz   JSON: build type, SIMD level, uptime, recent query
//              resource accounts, full registry snapshot.
//   /tracez    Text report of the most recent completed query span
//              trees (?fmt=json -> Chrome trace JSON of the newest).
//              Both read one QueryRing, so a query's "sequence" in
//              /statusz is its "trace #" in /tracez.
//   /profilez  Sampling-profiler top table (?fmt=folded -> collapsed
//              flamegraph stacks).
//
// Design constraints, in order:
//   * Never perturb the engine: every handler works from thread-safe
//     snapshots (registry exporters, ring snapshots); the server holds
//     no lock across any socket call.
//   * Sockets stay confined to src/telemetry/ — tools/lint.sh bans
//     <sys/socket.h> and friends elsewhere in src/, and the blocking
//     accept/read/write path is IDS_MAY_BLOCK-annotated for the
//     analyzer rather than baselined.
//   * Loopback by default (bind_address 127.0.0.1); this is a debug
//     plane, not a public API.
//
// handle(target) exposes the routing table without sockets so unit
// tests exercise every endpoint in-process; the socket loop is the thin
// transport around it.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "common/result.h"
#include "common/thread_annotations.h"

namespace ids::telemetry {

class MetricsRegistry;
class Profiler;
class QueryRing;

struct ObsServerOptions {
  /// Loopback only by default. "0.0.0.0" opts into external exposure.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; ObsServer::port() reports the choice.
  std::uint16_t port = 0;

  /// nullptr -> the process-global registry / profiler.
  MetricsRegistry* metrics = nullptr;
  Profiler* profiler = nullptr;
  /// Recent queries for /statusz and /tracez; both degrade gracefully
  /// when absent.
  QueryRing* queries = nullptr;

  /// Stamped into /statusz. Strings (not queried here) because the
  /// telemetry library sits below common/ and cannot call simd::.
  std::string build_type = "unknown";
  std::string simd_level = "unknown";
};

class ObsServer {
 public:
  explicit ObsServer(ObsServerOptions options);
  ~ObsServer();  // stops if still running

  ObsServer(const ObsServer&) = delete;
  ObsServer& operator=(const ObsServer&) = delete;

  /// Binds, listens, and spawns the accept thread. InvalidArgument for a
  /// bad bind address, Unavailable when bind/listen fails (port in use).
  /// IDS_MAY_BLOCK: bind/listen are syscalls and the accept thread is
  /// spawned here — never call under a lock.
  Status start() IDS_MAY_BLOCK IDS_EXCLUDES(control_mutex_);

  /// Shuts the listener down and joins the accept thread. Idempotent.
  void stop() IDS_MAY_BLOCK IDS_EXCLUDES(control_mutex_);

  bool running() const IDS_EXCLUDES(control_mutex_);

  /// The bound port (resolves port 0); valid after a successful start().
  std::uint16_t port() const {
    return port_.load(std::memory_order_acquire);
  }

  /// Routes `target` (path plus optional ?query) to its endpoint and
  /// returns the response body — 404 text for unknown paths. Socketless,
  /// for tests; the accept loop wraps this in HTTP framing.
  std::string handle(std::string_view target) const;

 private:
  struct Response {
    int status = 200;
    const char* content_type = "text/plain; charset=utf-8";
    std::string body;
  };

  Response route(std::string_view target) const;
  Response handle_index() const;
  Response handle_metrics() const;
  Response handle_statusz() const;
  Response handle_tracez(std::string_view query) const;
  Response handle_profilez(std::string_view query) const;

  /// Blocking accept/serve loop; exits when stop() shuts the listener.
  void serve_loop() IDS_MAY_BLOCK;

  const ObsServerOptions options_;
  MetricsRegistry& metrics_;   // resolved (global when options.metrics null)
  Profiler& profiler_;         // resolved likewise
  std::atomic<std::uint64_t> start_wall_ns_{0};
  std::atomic<std::uint16_t> port_{0};

  mutable Mutex control_mutex_;
  std::thread server_ IDS_GUARDED_BY(control_mutex_);
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
};

}  // namespace ids::telemetry
