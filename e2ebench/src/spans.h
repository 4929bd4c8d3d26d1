// In-memory span log for the traced run: every call the benchmark makes
// into a layer is wrapped in a Span (name, start, end, parent). Spans are
// kept in memory while the run measures and written out once at the end;
// per-layer numbers are derived from them afterwards, a layer's self time
// being its span minus the time covered by its child spans.
//
// When the log is disabled (untraced runs) a Span costs one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

struct SpanRecord {
  const char* name = nullptr;  // string literal, never owned
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the log, -1 at top level
  int thread = 0;
};

class SpanLog {
 public:
  static SpanLog& Global();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index.
  int64_t Open(const char* name);
  void Close(int64_t index);

  std::vector<SpanRecord> Records() const;
  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
  int next_thread_ = 0;
};

/// RAII span around one call into a layer.
class Span {
 public:
  explicit Span(const char* name)
      : index_(SpanLog::Global().enabled() ? SpanLog::Global().Open(name)
                                           : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::Global().Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

/// Per-name aggregate of the span log.
struct SpanStats {
  int64_t count = 0;
  std::vector<double> self_seconds;   // one entry per span
  std::vector<double> total_seconds;  // one entry per span
};

/// Groups spans by name and computes each span's self time (duration minus
/// the union of its children's intervals).
std::vector<std::pair<std::string, SpanStats>> AggregateSpans(
    const std::vector<SpanRecord>& records);

int64_t NowNs();

}  // namespace e2ebench
