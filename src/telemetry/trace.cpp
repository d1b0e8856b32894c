#include "telemetry/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/stats.h"
#include "telemetry/metrics.h"

namespace ids::telemetry {

namespace {

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microseconds with nanosecond resolution kept as three decimals, so the
/// trace timeline is exact for integer-nanosecond modeled times.
std::string micros_str(sim::Nanos ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

}  // namespace

std::string spans_to_chrome_json(const std::vector<Span>& spans,
                                 std::uint64_t dropped) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  // Metadata events: process name + one named thread per timeline seen.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"ids-engine (modeled time)\"}}";
  std::vector<int> ranks;
  bool engine_timeline = false;
  for (const Span& s : spans) {
    if (s.rank < 0) {
      engine_timeline = true;
    } else if (std::find(ranks.begin(), ranks.end(), s.rank) == ranks.end()) {
      ranks.push_back(s.rank);
    }
  }
  std::sort(ranks.begin(), ranks.end());
  if (engine_timeline) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
          "\"args\":{\"name\":\"engine\"}}";
  }
  for (int r : ranks) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << (r + 1) << ",\"args\":{\"name\":\"rank " << r << "\"}}";
  }
  for (const Span& s : spans) {
    const sim::Nanos end = std::max(s.virt_end, s.virt_start);
    os << ",\n{\"name\":\"" << escape_json(s.name) << "\",\"cat\":\""
       << escape_json(s.category) << "\",\"ph\":\"X\",\"ts\":"
       << micros_str(s.virt_start) << ",\"dur\":"
       << micros_str(end - s.virt_start) << ",\"pid\":0,\"tid\":"
       << (s.rank + 1) << ",\"args\":{\"span_id\":" << s.id
       << ",\"parent_id\":" << s.parent << ",\"modeled_ns\":"
       << (end - s.virt_start) << ",\"wall_ns\":"
       << (s.wall_end_ns >= s.wall_start_ns ? s.wall_end_ns - s.wall_start_ns
                                            : 0);
    for (const auto& [k, v] : s.attrs) {
      os << ",\"" << escape_json(k) << "\":\"" << escape_json(v) << "\"";
    }
    os << "}}";
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
     << dropped << "}}\n";
  return os.str();
}

std::string spans_to_text_report(const std::vector<Span>& spans,
                                 std::uint64_t dropped) {
  // Children lists in recording order; parent id < child id always holds.
  // A tail snapshot (QueryRing entry) may carry ids offset from its
  // indices, so parents are resolved relative to the first span's id.
  const SpanId base = spans.empty() ? 0 : spans.front().id - 1;
  std::vector<std::vector<std::size_t>> children(spans.size() + 1);
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanId p = spans[i].parent;
    if (p <= base || p > base + spans.size()) {
      roots.push_back(i);
    } else {
      children[p - base].push_back(i);
    }
  }
  std::ostringstream os;
  os << "trace: " << spans.size() << " spans";
  if (dropped > 0) os << " (" << dropped << " dropped)";
  os << "\n";
  std::map<std::string, RunningStats> by_category;
  // Explicit stack instead of recursion: traces can be 4+ levels deep but
  // also 64k spans wide.
  std::vector<std::pair<std::size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    const auto [i, depth] = stack.back();
    stack.pop_back();
    const Span& s = spans[i];
    by_category[s.category].add(sim::to_seconds(s.virt_duration()));
    std::string label(static_cast<std::size_t>(depth) * 2, ' ');
    label += s.name;
    if (s.rank >= 0) label += " [rank " + std::to_string(s.rank) + "]";
    char line[160];
    std::snprintf(line, sizeof(line), "%-48s modeled %12.6fs  wall %10.3fms",
                  label.c_str(), sim::to_seconds(s.virt_duration()),
                  static_cast<double>(s.wall_end_ns >= s.wall_start_ns
                                          ? s.wall_end_ns - s.wall_start_ns
                                          : 0) /
                      1e6);
    os << line;
    if (!s.attrs.empty()) {
      os << "  [";
      for (std::size_t a = 0; a < s.attrs.size(); ++a) {
        if (a) os << " ";
        os << s.attrs[a].first << "=" << s.attrs[a].second;
      }
      os << "]";
    }
    os << "\n";
    const auto& kids = children[s.id - base];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  os << "by category (modeled seconds):\n";
  for (const auto& [category, stats] : by_category) {
    char line[200];
    std::snprintf(line, sizeof(line), "  %-10s %s\n", category.c_str(),
                  stats.to_string().c_str());
    os << line;
  }
  return os.str();
}

Tracer::Tracer(std::size_t max_spans, MetricsRegistry* metrics)
    : max_spans_(max_spans),
      dropped_counter_((metrics != nullptr ? *metrics
                                           : MetricsRegistry::global())
                           .counter("ids_trace_dropped_spans_total")) {}

std::uint64_t Tracer::wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span* Tracer::find_locked(SpanId id) {
  if (id == kNoSpan || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

SpanId Tracer::begin_span(std::string_view name, std::string_view category,
                          SpanId parent, int rank, sim::Nanos virt_now) {
  const std::uint64_t wall = wall_now_ns();
  MutexLock lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    dropped_counter_->inc();
    return kNoSpan;
  }
  Span span;
  span.name = std::string(name);
  span.category = std::string(category);
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = parent;
  span.rank = rank;
  span.virt_start = virt_now;
  span.virt_end = virt_now;
  span.wall_start_ns = wall;
  span.wall_end_ns = wall;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end_span(SpanId id, sim::Nanos virt_now) {
  const std::uint64_t wall = wall_now_ns();
  MutexLock lock(mutex_);
  Span* span = find_locked(id);
  if (span == nullptr) return;
  span->virt_end = virt_now;
  span->wall_end_ns = wall;
}

SpanId Tracer::record_span(std::string_view name, std::string_view category,
                           SpanId parent, int rank, sim::Nanos virt_start,
                           sim::Nanos virt_end, std::uint64_t wall_start_ns,
                           std::uint64_t wall_end_ns) {
  MutexLock lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    dropped_counter_->inc();
    return kNoSpan;
  }
  Span span;
  span.name = std::string(name);
  span.category = std::string(category);
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = parent;
  span.rank = rank;
  span.virt_start = virt_start;
  span.virt_end = virt_end;
  span.wall_start_ns = wall_start_ns;
  span.wall_end_ns = wall_end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::add_attr(SpanId id, std::string_view key, std::string_view value) {
  MutexLock lock(mutex_);
  Span* span = find_locked(id);
  if (span == nullptr) return;
  span->attrs.emplace_back(std::string(key), std::string(value));
}

void Tracer::add_attr(SpanId id, std::string_view key, std::uint64_t value) {
  add_attr(id, key, std::string_view(std::to_string(value)));
}

void Tracer::add_attr(SpanId id, std::string_view key, double value) {
  add_attr(id, key, std::string_view(format_double(value)));
}

std::size_t Tracer::size() const {
  MutexLock lock(mutex_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  MutexLock lock(mutex_);
  return dropped_;
}

std::vector<Span> Tracer::snapshot() const {
  MutexLock lock(mutex_);
  return spans_;
}

std::vector<Span> Tracer::snapshot_tail(std::size_t first) const {
  MutexLock lock(mutex_);
  if (first >= spans_.size()) return {};
  return std::vector<Span>(spans_.begin() + static_cast<std::ptrdiff_t>(first),
                           spans_.end());
}

void Tracer::clear() {
  MutexLock lock(mutex_);
  spans_.clear();
  dropped_ = 0;
}

std::string Tracer::to_chrome_json() const {
  std::vector<Span> spans;
  std::uint64_t dropped_count;
  {
    MutexLock lock(mutex_);
    spans = spans_;
    dropped_count = dropped_;
  }
  return spans_to_chrome_json(spans, dropped_count);
}

std::string Tracer::to_text_report() const {
  std::vector<Span> spans;
  std::uint64_t dropped_count;
  {
    MutexLock lock(mutex_);
    spans = spans_;
    dropped_count = dropped_;
  }
  return spans_to_text_report(spans, dropped_count);
}

}  // namespace ids::telemetry
