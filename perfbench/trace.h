// Span recorder for the benchmark's traced run.
//
// The benchmark measures every layer from outside: it wraps each call it
// makes into compress, nvm, core and serve in a Span. Spans are kept in
// memory and written at exit as Chrome trace-event JSON. A disabled
// Tracer records nothing, so the untraced run that yields the end-to-end
// metrics pays one branch per call. Spans are opened from the driving
// thread only (the workloads are closed loops driven from one thread).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// Monotonic wall time in nanoseconds since an arbitrary origin.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Query id of spans that belong to no single query.
inline constexpr int64_t kNoQuery = -1;

class Tracer {
 public:
  struct Record {
    std::string name;   // "<layer>.<call>", e.g. "core.run"
    std::string layer;  // prefix of name up to the first '.'
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    int64_t query = kNoQuery;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested under the innermost open one; returns its id
  /// (0 when disabled).
  uint64_t Begin(const std::string& name, int64_t query);
  void End(uint64_t id);

  /// Self time per layer in nanoseconds over the spans that started at
  /// or after `since_ns`: each span's duration minus the time its child
  /// spans cover.
  std::map<std::string, uint64_t> SelfTimeNs(uint64_t since_ns) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, times in
  /// microseconds since the first span).
  ntadoc::Status WriteChromeTrace(const std::string& path) const;

  const std::vector<Record>& records() const { return records_; }

 private:
  bool enabled_;
  std::vector<Record> records_;
  std::vector<uint64_t> open_;  // stack of open span ids
};

/// RAII span; a null or disabled tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, int64_t query = kNoQuery)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, query) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
