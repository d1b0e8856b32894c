#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "common/thread_annotations.h"

namespace ids {

namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
std::mutex g_mutex;

/// Small stable per-thread id (order of first log call), far more readable
/// in interleaved output than the opaque std::thread::id hash.
int thread_log_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// ISO-8601 UTC with millisecond resolution: 2026-08-05T14:03:22.123Z.
/// Log-line timestamps are the sanctioned wall-clock read outside
/// src/telemetry/ — they never feed modeled time.
void format_timestamp(char* buf, std::size_t size) IDS_WALLCLOCK_OK {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  std::snprintf(buf, size, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(millis));
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

namespace internal {
void log_line(LogLevel level, const std::string& msg) {
  char ts[80];  // sized so snprintf cannot truncate even for absurd tm years
  format_timestamp(ts, sizeof(ts));
  const int tid = thread_log_id();
  std::lock_guard<std::mutex> lock(g_mutex);
  std::fprintf(stderr, "[ids %s %s t%02d] %s\n", level_name(level), ts, tid,
               msg.c_str());
}
}  // namespace internal

}  // namespace ids
