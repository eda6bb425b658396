#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval around a call into one layer of the program. Spans
/// of one request share `request`; `parent` is the index (in the same
/// SpanLog) of the span that caused this one, or kNoParent.
struct Span {
  static constexpr uint32_t kNoParent = UINT32_MAX;
  const char* name = "";  // static string: "<layer>.<stage>"
  uint64_t request = 0;
  uint32_t parent = kNoParent;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// In-memory span store for one thread. Disabled logs record nothing, so
/// the untraced run pays one branch per span site. Spans are written out
/// once, when the benchmark ends (WriteJsonl).
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Opens a span and returns its index (kNoParent when disabled).
  uint32_t Open(const char* name, uint64_t request,
                uint32_t parent = Span::kNoParent);
  /// Closes the span `Open` returned.
  void Close(uint32_t index);
  /// Records an already-measured interval.
  uint32_t Add(const char* name, uint64_t request, int64_t start_ns,
               int64_t end_ns, uint32_t parent = Span::kNoParent);

  /// Appends every span of `other` (re-basing parent indexes).
  void Merge(const SpanLog& other);

  /// Durations, in microseconds, of every span named `name`.
  std::vector<double> Micros(const std::string& name) const;

  /// One JSON object per line: name, request, parent, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t request,
             uint32_t parent = Span::kNoParent)
      : log_(log), index_(log.Open(name, request, parent)) {}
  ~ScopedSpan() { log_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
