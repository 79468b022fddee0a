#ifndef SVCBENCH_SPAN_TRACE_H_
#define SVCBENCH_SPAN_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace svcbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span store of the traced run: spans are appended while the
/// run executes and written out only when it ends. A span carries its
/// name, start, end, the index of the span that caused it (-1 for none)
/// and the task it belongs to (-1 for none).
class SpanTrace {
 public:
  static constexpr int32_t kNoParent = -1;
  static constexpr int64_t kNoTask = -1;

  struct Span {
    const char* name;  ///< Static string.
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;
    int64_t task_id;
    int64_t count;  ///< Calls the span covers (a run of re-reports > 1).
  };

  /// Per-name totals: `self_ns` is the total minus the time the name's
  /// direct children cover.
  struct Summary {
    std::string name;
    int64_t spans = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  void Reserve(size_t n) { spans_.reserve(n); }

  /// Opens a span starting now; returns its index.
  int32_t Open(const char* name, int32_t parent = kNoParent,
               int64_t task_id = kNoTask) {
    return Add(name, NowNs(), 0, parent, task_id);
  }
  void Close(int32_t span) {
    spans_[static_cast<size_t>(span)].end_ns = NowNs();
  }
  int32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
              int32_t parent = kNoParent, int64_t task_id = kNoTask,
              int64_t count = 1) {
    spans_.push_back({name, start_ns, end_ns, parent, task_id, count});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  uint64_t DurationNs(int32_t span) const {
    const Span& s = spans_[static_cast<size_t>(span)];
    return s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Totals per span name, in first-seen order.
  std::vector<Summary> Summarize() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds relative
  /// to `origin_ns`), loadable in ui.perfetto.dev. False on I/O failure.
  bool WriteChromeJson(const std::string& path, uint64_t origin_ns) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace svcbench

#endif  // SVCBENCH_SPAN_TRACE_H_
