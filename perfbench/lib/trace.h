#ifndef PERFBENCH_LIB_TRACE_H_
#define PERFBENCH_LIB_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. `name` is "<layer>.<call>" (e.g. "core.ReadTxn",
/// "op.view") and points at a string literal. Spans of one operation
/// share `trace_id`, which is the id of the operation's root span;
/// `parent_id` is 0 for a root.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
  /// The part of `name` before the first '.'.
  std::string layer() const;
};

/// Process-wide span recorder. Spans are kept in per-thread buffers in
/// memory while recording is enabled; Collect() merges them once the
/// recording threads are idle. With recording disabled a Span costs one
/// relaxed atomic load.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();
  /// Every span recorded so far, across threads. Callers must make sure
  /// no thread is recording concurrently (e.g. after joining workers).
  static std::vector<SpanRecord> Collect();
  /// Drops every recorded span.
  static void Clear();
  /// Writes spans as JSON lines (one object per span).
  static bool WriteJsonLines(const std::vector<SpanRecord>& spans,
                             const std::string& path);
};

/// RAII span. A root span (`root` true) starts a new trace; a child span
/// records only when the thread already has an open span, so an operation
/// that started with recording off never yields orphans.
class Span {
 public:
  explicit Span(const char* name, bool root = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
/// Result is indexed like `spans`.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_TRACE_H_
