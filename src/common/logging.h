#pragma once

// Minimal leveled logger. Output goes to stderr so it never pollutes the
// benchmark tables printed on stdout. Logging is process-global and
// thread-safe; the level can be raised to silence chatty subsystems in
// tests.
//
// Line format: `[ids WARN  2026-08-05T14:03:22.123Z t03] message` — an
// ISO-8601 UTC timestamp plus a small stable per-thread id, so interleaved
// multi-rank output can be ordered and attributed.

#include <sstream>
#include <string>

namespace ids {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level; messages below it are dropped.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace internal {
void log_line(LogLevel level, const std::string& msg);

class LogMessage {
 public:
  explicit LogMessage(LogLevel level) : level_(level) {}
  ~LogMessage() { log_line(level_, stream_.str()); }
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

}  // namespace ids

#define IDS_LOG(level)                                  \
  if (static_cast<int>(level) < static_cast<int>(::ids::log_level())) { \
  } else                                                \
    ::ids::internal::LogMessage(level)

#define IDS_DEBUG IDS_LOG(::ids::LogLevel::kDebug)
#define IDS_INFO IDS_LOG(::ids::LogLevel::kInfo)
#define IDS_WARN IDS_LOG(::ids::LogLevel::kWarn)
#define IDS_ERROR IDS_LOG(::ids::LogLevel::kError)
