#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log for the traced run. Spans are recorded by the
// benchmark itself around each call it makes into a layer's public
// function; nothing inside the program is instrumented. Each thread owns
// one log, so recording takes no lock; the logs are merged and written
// out once the measured rounds have ended.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index in the same log, -1 for a root
  std::uint64_t request = 0;   ///< shared by every span of one request
};

class SpanLog {
 public:
  /// Appends a span and returns its index (the parent handle of children).
  int Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::uint64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Adds child spans laid end to end from `start_ns`, one per
  /// (name, microseconds) pair with a positive duration. The server reports
  /// its wait states as durations, not timestamps, so their order inside
  /// the parent is the request path's (queue, guard, execute, journal).
  void AddSequence(
      int parent, std::int64_t start_ns, std::uint64_t request,
      const std::vector<std::pair<const char*, double>>& parts) {
    std::int64_t at = start_ns;
    for (const auto& [name, micros] : parts) {
      if (micros <= 0) continue;
      const auto len = static_cast<std::int64_t>(micros * 1000.0);
      Add(name, at, at + len, parent, request);
      at += len;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per span name: how many, their summed duration, and their summed self
/// time (duration minus the time covered by their children).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

inline void AccumulateSelfTime(const SpanLog& log,
                               std::map<std::string, SpanTotals>* out) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    std::int64_t self = dur - child_ns[i];
    if (self < 0) self = 0;
    SpanTotals& t = (*out)[spans[i].name];
    ++t.count;
    t.total_us += static_cast<double>(dur) / 1000.0;
    t.self_us += static_cast<double>(self) / 1000.0;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
