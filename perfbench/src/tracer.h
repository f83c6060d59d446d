#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Each span has a name, a
/// start and end on the steady clock, the span that was open on the same
/// thread when it began (its parent), and a request id shared by the spans
/// of one request. Spans are kept per thread and written out at exit as
/// Chrome trace-event JSON, which Perfetto and chrome://tracing open
/// offline. An inactive tracer records nothing and costs one load and
/// one branch per span; the traced run switches it on and off between
/// measuring windows to measure its own overhead.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool active() const { return active_.load(std::memory_order_relaxed); }
  void SetActive(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }

  /// Opens a span on the calling thread.
  void Begin(const char* name, int64_t request_id);
  /// Closes the innermost open span of the calling thread.
  void End();

  /// Per span name: total duration and self time (duration minus the time
  /// covered by its child spans), both in seconds, plus the span count.
  struct SelfTime {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  int64_t span_count() const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps). Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t id;
    int64_t parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
  };
  struct ThreadLog {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<size_t> open;  // indices into spans
  };
  ThreadLog* LogForThisThread();

  std::atomic<bool> active_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // guarded by mu_
};

/// RAII span on a tracer (a no-op while the tracer is inactive).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request_id = -1)
      : tracer_(tracer->active() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Begin(name, request_id);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
