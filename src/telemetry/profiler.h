#pragma once

// Sampling wall-clock profiler with flamegraph export (ISSUE 9 tentpole).
//
// Cooperative, signal-free design: instrumented code pushes RAII
// ProfileScope frames onto a per-thread shadow stack, and a background
// sampler thread walks every registered shadow stack at a configurable
// rate, aggregating the frame paths it sees into collapsed-stack
// ("folded") counts. Only the owning thread writes its stack, under a
// seqlock of atomics, so the mutator never locks and the sampler never
// sees a half-written stack — no signals, no asynchronous stack
// unwinding, clean under ASan and TSan and safe to leave compiled into
// every build.
//
//   ProfileScope s("engine.scan");   // push; pops on scope exit
//
// Scope names must be string literals (or otherwise outlive the
// profiler): the shadow stack stores `const char*` so a push is a few
// inline stores, never an allocation. Threads register lazily on their
// first push and are never unregistered — thread-pool workers are immortal
// in this codebase, and an exited thread's stack simply sits at depth
// zero, which the sampler skips (idle threads contribute no samples,
// so every sample lands in a named scope).
//
// Exports:
//   to_folded()    — Brendan Gregg collapsed-stack text
//                    ("a;b;c <count>\n"), feed to flamegraph.pl or
//                    speedscope.
//   to_json_top(n) — top-N frames by self samples with self/total
//                    counts, for /profilez.
//
// The sampler thread is paced by CondVar::wait_for (tools/lint.sh bans
// raw sleep_for in src/), so stop() interrupts a tick immediately.
// Lock order: control_mutex_ -> tick_mutex_; no callback ever runs under
// a profiler lock.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace ids::telemetry {

/// Shadow-stack frames deeper than this are counted but not recorded;
/// the sample path gains a trailing "[truncated]" frame instead.
inline constexpr std::size_t kMaxProfileDepth = 32;

/// One thread's shadow stack, written only by that thread. The owner
/// makes `seq` odd before each push or pop and even after it; the sampler
/// copies the stack and retries while `seq` is odd or has moved (a
/// seqlock). The data stores are releases and the sampler's data loads
/// acquires, so a copy that saw any of a write's data also sees `seq`
/// moved; no standalone fence (which TSan cannot model) is needed, and
/// on x86 every access is a plain move. `depth` keeps counting past
/// kMaxProfileDepth (frames beyond the cap are not stored) so pops stay
/// balanced no matter how deep the code recursed.
struct ProfileThreadStack {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::size_t> depth{0};
  std::array<std::atomic<const char*>, kMaxProfileDepth> frames{};

  void push(const char* name) {
    const std::uint64_t s = begin_write();
    const std::size_t d = depth.load(std::memory_order_relaxed);
    if (d < kMaxProfileDepth) frames[d].store(name, std::memory_order_release);
    depth.store(d + 1, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }
  void pop() {
    const std::uint64_t s = begin_write();
    const std::size_t d = depth.load(std::memory_order_relaxed);
    IDS_CHECK(d > 0);  // pop without a matching push
    depth.store(d - 1, std::memory_order_release);
    seq.store(s + 2, std::memory_order_release);
  }

 private:
  /// Marks the stack mid-write (odd) and returns the even sequence before.
  std::uint64_t begin_write() {
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    return s;
  }
};

namespace internal {
/// The calling thread's shadow stack in the global profiler; null until
/// its first enabled scope. Never reset: the stack lives as long as the
/// (leaked) profiler singleton.
inline thread_local ProfileThreadStack* t_profile_stack = nullptr;
}  // namespace internal

/// Process-wide sampling profiler. A singleton by design: ProfileScope
/// binds the global instance through one thread-local slot, so a second
/// instance would silently share shadow stacks. Tests drive the
/// singleton with clear()/set_enabled() and direct sample_once() calls.
class Profiler {
 public:
  static constexpr double kDefaultHertz = 97.0;  // co-prime with 10ms tickers

  static Profiler& global();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Master switch consulted by ProfileScope before touching any shadow
  /// stack. Off by default: a disabled profiler costs one relaxed load
  /// per scope.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts the background sampler at `hertz` samples per second.
  /// Idempotent: a second start() while running is a no-op (the original
  /// rate is kept). Implies set_enabled(true). IDS_MAY_BLOCK: spawns the
  /// sampler thread — never call under a lock.
  void start(double hertz = kDefaultHertz) IDS_MAY_BLOCK
      IDS_EXCLUDES(control_mutex_);

  /// Stops and joins the sampler thread. Idempotent; collected samples
  /// are retained for export. Disables scope collection.
  void stop() IDS_MAY_BLOCK IDS_EXCLUDES(control_mutex_);

  bool running() const IDS_EXCLUDES(control_mutex_);

  /// Takes one sample of every registered shadow stack right now.
  /// Exposed so tests aggregate deterministically without the timer.
  void sample_once() IDS_EXCLUDES(data_mutex_);

  /// Drops all aggregated samples (shadow stacks and registrations are
  /// kept). Sampler may stay running.
  void clear() IDS_EXCLUDES(data_mutex_);

  /// Stack samples aggregated so far (one per non-idle thread per tick).
  std::uint64_t samples_total() const IDS_EXCLUDES(data_mutex_);
  /// Sampler ticks taken (sample_once calls), including all-idle ones.
  std::uint64_t ticks_total() const IDS_EXCLUDES(data_mutex_);

  /// Collapsed-stack flamegraph text, one "frame;frame;... count" line
  /// per distinct path, sorted by path for determinism.
  std::string to_folded() const IDS_EXCLUDES(data_mutex_);

  /// JSON top table: {"samples_total":..,"ticks_total":..,"top":[
  /// {"frame":..,"self":..,"total":..},..]} — `self` counts samples with
  /// the frame on top, `total` samples with it anywhere; sorted by self
  /// descending then frame name, at most `top_n` rows.
  std::string to_json_top(std::size_t top_n = 20) const
      IDS_EXCLUDES(data_mutex_);

  /// The calling thread's shadow stack, registered on first use
  /// (ProfileScope internals -- not for direct use).
  ProfileThreadStack* thread_stack() {
    ProfileThreadStack* stack = internal::t_profile_stack;
    return stack != nullptr ? stack : register_thread();
  }

 private:
  Profiler() = default;
  ~Profiler() = delete;  // leaked singleton; worker threads may outlive main

  ProfileThreadStack* register_thread() IDS_EXCLUDES(data_mutex_);
  /// Paces on tick_mutex_ only — it must never touch control_mutex_,
  /// which start() holds while spawning the sampler thread.
  void sampler_loop(std::chrono::nanoseconds period)
      IDS_EXCLUDES(tick_mutex_, data_mutex_);

  std::atomic<bool> enabled_{false};

  // Lock order: control_mutex_ -> tick_mutex_; data_mutex_ is only ever
  // taken with neither held.
  mutable Mutex control_mutex_;
  std::thread sampler_ IDS_GUARDED_BY(control_mutex_);

  mutable Mutex tick_mutex_;
  CondVar tick_cv_;
  bool stop_requested_ IDS_GUARDED_BY(tick_mutex_) = false;

  mutable Mutex data_mutex_;
  std::vector<std::unique_ptr<ProfileThreadStack>> stacks_
      IDS_GUARDED_BY(data_mutex_);
  // Collapsed path ("a;b;c") -> sample count. std::map keeps exports
  // deterministically sorted.
  std::map<std::string, std::uint64_t> folded_ IDS_GUARDED_BY(data_mutex_);
  std::uint64_t samples_ IDS_GUARDED_BY(data_mutex_) = 0;
  std::uint64_t ticks_ IDS_GUARDED_BY(data_mutex_) = 0;
};

/// RAII shadow-stack frame. Constructing pushes `name` onto the calling
/// thread's stack if the global profiler is enabled; destruction pops.
/// `name` must outlive the profiler (use string literals or interned
/// names such as UdfInfo::name).
class ProfileScope {
 public:
  explicit ProfileScope(const char* name) {
    Profiler& p = Profiler::global();
    if (p.enabled()) {
      // Pop exactly what we pushed, even if disabled later.
      stack_ = p.thread_stack();
      stack_->push(name);
    }
  }
  ~ProfileScope() {
    if (stack_ != nullptr) stack_->pop();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileThreadStack* stack_ = nullptr;
};

}  // namespace ids::telemetry
