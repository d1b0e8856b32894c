#include "telemetry/profiler.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ids::telemetry {

Profiler& Profiler::global() {
  // Leaked on purpose: worker threads may still pop frames during static
  // destruction. lint:allow-global: process-wide singleton by design.
  static Profiler* const instance = new Profiler();
  return *instance;
}

ProfileThreadStack* Profiler::register_thread() {
  auto stack = std::make_unique<ProfileThreadStack>();
  internal::t_profile_stack = stack.get();
  MutexLock lock(data_mutex_);
  stacks_.push_back(std::move(stack));
  return internal::t_profile_stack;
}

void Profiler::sample_once() {
  MutexLock lock(data_mutex_);
  ++ticks_;
  std::string path;
  std::array<const char*, kMaxProfileDepth> frames;
  for (const auto& stack : stacks_) {
    // Seqlock read: retry while the owner is mid-write (odd) or wrote
    // during the copy (moved).
    std::size_t full_depth = 0;
    for (;;) {
      const std::uint64_t seq = stack->seq.load(std::memory_order_acquire);
      if ((seq & 1) != 0) {
        std::this_thread::yield();
        continue;
      }
      full_depth = stack->depth.load(std::memory_order_acquire);
      const std::size_t n = std::min(full_depth, kMaxProfileDepth);
      for (std::size_t i = 0; i < n; ++i) {
        frames[i] = stack->frames[i].load(std::memory_order_acquire);
      }
      if (stack->seq.load(std::memory_order_relaxed) == seq) break;
    }
    const std::size_t depth = std::min(full_depth, kMaxProfileDepth);
    const bool truncated = full_depth > kMaxProfileDepth;
    if (depth == 0) continue;  // idle thread: contributes no sample
    path.clear();
    for (std::size_t i = 0; i < depth; ++i) {
      if (i != 0) path += ';';
      path += frames[i];
    }
    if (truncated) path += ";[truncated]";
    ++folded_[path];
    ++samples_;
  }
}

void Profiler::clear() {
  MutexLock lock(data_mutex_);
  folded_.clear();
  samples_ = 0;
  ticks_ = 0;
}

std::uint64_t Profiler::samples_total() const {
  MutexLock lock(data_mutex_);
  return samples_;
}

std::uint64_t Profiler::ticks_total() const {
  MutexLock lock(data_mutex_);
  return ticks_;
}

void Profiler::start(double hertz) {
  IDS_CHECK(hertz > 0.0);
  set_enabled(true);
  MutexLock lock(control_mutex_);
  if (sampler_.joinable()) return;  // already running; keep original rate
  {
    MutexLock tick_lock(tick_mutex_);
    stop_requested_ = false;
  }
  const auto period =
      std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 / hertz));
  sampler_ = std::thread([this, period] { sampler_loop(period); });
}

void Profiler::stop() {
  set_enabled(false);
  std::thread joinable;
  {
    MutexLock lock(control_mutex_);
    if (!sampler_.joinable()) return;  // already stopped
    {
      MutexLock tick_lock(tick_mutex_);
      stop_requested_ = true;
    }
    tick_cv_.notify_all();
    joinable = std::move(sampler_);
  }
  joinable.join();  // outside the locks: never block while holding one
}

bool Profiler::running() const {
  MutexLock lock(control_mutex_);
  return sampler_.joinable();
}

void Profiler::sampler_loop(std::chrono::nanoseconds period) {
  for (;;) {
    {
      MutexLock lock(tick_mutex_);
      const bool stopping = tick_cv_.wait_for(
          tick_mutex_, period,
          [this]() IDS_REQUIRES(tick_mutex_) { return stop_requested_; });
      if (stopping) return;
    }
    sample_once();
  }
}

std::string Profiler::to_folded() const {
  MutexLock lock(data_mutex_);
  std::string out;
  for (const auto& [path, count] : folded_) {
    out += path;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string Profiler::to_json_top(std::size_t top_n) const {
  struct FrameCounts {
    std::uint64_t self = 0;
    std::uint64_t total = 0;
  };
  std::map<std::string, FrameCounts> frames;
  std::uint64_t samples = 0;
  std::uint64_t ticks = 0;
  {
    MutexLock lock(data_mutex_);
    samples = samples_;
    ticks = ticks_;
    for (const auto& [path, count] : folded_) {
      // `total` counts a frame once per sample even if it repeats in the
      // path (recursive scopes); `self` goes to the leaf frame only.
      std::size_t begin = 0;
      std::string_view leaf;
      std::vector<std::string_view> seen;
      const std::string_view p(path);
      while (begin <= p.size()) {
        const std::size_t end = std::min(p.find(';', begin), p.size());
        const std::string_view frame = p.substr(begin, end - begin);
        leaf = frame;
        if (std::find(seen.begin(), seen.end(), frame) == seen.end()) {
          seen.push_back(frame);
          frames[std::string(frame)].total += count;
        }
        begin = end + 1;
      }
      frames[std::string(leaf)].self += count;
    }
  }

  std::vector<std::pair<std::string, FrameCounts>> rows(frames.begin(),
                                                        frames.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.self != b.second.self) return a.second.self > b.second.self;
    return a.first < b.first;
  });
  if (rows.size() > top_n) rows.resize(top_n);

  std::ostringstream os;
  os << "{\"samples_total\":" << samples << ",\"ticks_total\":" << ticks
     << ",\"top\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"frame\":\"" << rows[i].first << "\",\"self\":"
       << rows[i].second.self << ",\"total\":" << rows[i].second.total << '}';
  }
  os << "]}";
  return os.str();
}

}  // namespace ids::telemetry
