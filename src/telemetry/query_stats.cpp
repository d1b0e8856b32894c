#include "telemetry/query_stats.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "telemetry/metrics.h"  // format_double

namespace ids::telemetry {

std::uint64_t QueryResourceAccount::cache_hits() const {
  std::uint64_t hits = 0;
  for (const TierBytes& t : tiers) hits += t.hits;
  return hits;
}

std::string QueryResourceAccount::to_json() const {
  std::ostringstream os;
  os << "{\"sequence\":" << sequence
     << ",\"modeled_seconds\":" << format_double(modeled_seconds)
     << ",\"wall_seconds\":" << format_double(wall_seconds)
     << ",\"divergence_seconds\":" << format_double(divergence_seconds())
     << ",\"rows_gathered\":" << rows_gathered
     << ",\"rows_partitioned\":" << rows_partitioned
     << ",\"udf_invocations\":" << udf_invocations
     << ",\"peak_solution_bytes\":" << peak_solution_bytes
     << ",\"cache_bytes_written\":" << cache_bytes_written
     << ",\"cache_misses\":" << cache_misses << ",\"tiers\":[";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"tier\":\"" << tiers[i].tier << "\",\"bytes_in\":"
       << tiers[i].bytes_in << ",\"hits\":" << tiers[i].hits << '}';
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"stage\":\"" << stages[i].stage << "\",\"modeled_seconds\":"
       << format_double(stages[i].modeled_seconds) << ",\"wall_seconds\":"
       << format_double(stages[i].wall_seconds) << ",\"divergence_seconds\":"
       << format_double(stages[i].divergence_seconds()) << '}';
  }
  os << "]}";
  return os.str();
}

QueryRing::QueryRing(std::size_t capacity) : capacity_(capacity) {
  IDS_CHECK(capacity_ > 0) << "QueryRing capacity must be positive";
}

namespace {

/// Queries ever pushed: the newest entry's sequence (entries_ never
/// empties once a query is pushed, since capacity_ > 0).
std::uint64_t total_of(const std::vector<QueryRing::Entry>& entries) {
  return entries.empty() ? 0 : entries.back().sequence;
}

}  // namespace

std::uint64_t QueryRing::push(QueryResourceAccount account,
                              std::vector<Span> spans, std::uint64_t dropped) {
  MutexLock lock(mutex_);
  const std::uint64_t sequence = total_of(entries_) + 1;
  account.sequence = sequence;
  entries_.push_back({sequence, std::move(account), std::move(spans), dropped});
  if (entries_.size() > capacity_) entries_.erase(entries_.begin());
  return sequence;
}

std::vector<QueryRing::Entry> QueryRing::snapshot() const {
  MutexLock lock(mutex_);
  return entries_;
}

std::uint64_t QueryRing::total_pushed() const {
  MutexLock lock(mutex_);
  return total_of(entries_);
}

std::string QueryRing::to_json() const {
  const std::vector<Entry> entries = snapshot();
  std::ostringstream os;
  os << "{\"total\":" << total_of(entries) << ",\"recent\":[";
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it != entries.rbegin()) os << ',';
    os << it->account.to_json();
  }
  os << "]}";
  return os.str();
}

std::string QueryRing::to_text_report() const {
  const std::vector<Entry> entries = snapshot();
  std::ostringstream os;
  os << "tracez: " << entries.size() << " of " << total_of(entries)
     << " completed queries retained (capacity " << capacity_ << ")\n";
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    os << "\n=== trace #" << it->sequence << " ===\n"
       << spans_to_text_report(it->spans, it->dropped);
  }
  return os.str();
}

std::string QueryRing::to_chrome_json() const {
  MutexLock lock(mutex_);
  if (entries_.empty()) return spans_to_chrome_json({}, 0);
  const Entry& last = entries_.back();
  return spans_to_chrome_json(last.spans, last.dropped);
}

}  // namespace ids::telemetry
