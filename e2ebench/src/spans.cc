#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace e2ebench {

namespace {

struct ThreadSpans {
  int id = -1;
  std::vector<int64_t> open;  // stack of open span indices
};

thread_local ThreadSpans tls_spans;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog& SpanLog::Global() {
  static SpanLog log;
  return log;
}

int64_t SpanLog::Open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent = tls_spans.open.empty() ? -1 : tls_spans.open.back();
  std::lock_guard<std::mutex> lock(mutex_);
  if (tls_spans.id < 0) tls_spans.id = next_thread_++;
  record.thread = tls_spans.id;
  record.start_ns = NowNs();
  const auto index = static_cast<int64_t>(records_.size());
  records_.push_back(record);
  tls_spans.open.push_back(index);
  return index;
}

void SpanLog::Close(int64_t index) {
  const int64_t end = NowNs();
  if (!tls_spans.open.empty() && tls_spans.open.back() == index) {
    tls_spans.open.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  records_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<SpanRecord> SpanLog::Records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::vector<SpanRecord> records = Records();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"thread\":%d}\n",
                 i, r.name, static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.parent), r.thread);
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<SpanRecord>& records) {
  // Children's intervals per parent, merged so overlapping children are
  // not subtracted twice.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      records.size());
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) {
      children[static_cast<size_t>(r.parent)].emplace_back(r.start_ns,
                                                           r.end_ns);
    }
  }
  std::map<std::string, SpanStats> by_name;
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (const auto& [s, e] : kids) {
      const int64_t cs = std::max(s, r.start_ns);
      const int64_t ce = std::min(e, r.end_ns);
      if (ce <= cs) continue;
      if (cs > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = cs;
        cur_end = ce;
      } else {
        cur_end = std::max(cur_end, ce);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    SpanStats& stats = by_name[r.name];
    stats.count++;
    const double total = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    stats.total_seconds.push_back(total);
    stats.self_seconds.push_back(
        static_cast<double>(r.end_ns - r.start_ns - covered) * 1e-9);
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace e2ebench
