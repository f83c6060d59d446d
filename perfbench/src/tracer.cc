#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local const Tracer* tl_owner = nullptr;
thread_local void* tl_log = nullptr;

}  // namespace

Tracer::ThreadLog* Tracer::LogForThisThread() {
  if (tl_owner == this) return static_cast<ThreadLog*>(tl_log);
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<ThreadLog>());
  ThreadLog* log = logs_.back().get();
  log->tid = static_cast<int>(logs_.size());
  log->spans.reserve(1 << 16);
  tl_owner = this;
  tl_log = log;
  return log;
}

void Tracer::Begin(const char* name, int64_t request_id) {
  ThreadLog* log = LogForThisThread();
  // Ids are unique without a lock: the thread index in the high bits.
  const int64_t id =
      (static_cast<int64_t>(log->tid) << 40) + 1 +
      static_cast<int64_t>(log->spans.size());
  const int64_t parent =
      log->open.empty() ? 0 : log->spans[log->open.back()].id;
  log->spans.push_back({name, id, parent, request_id, SteadyNs(), 0, 0});
  log->open.push_back(log->spans.size() - 1);
}

void Tracer::End() {
  ThreadLog* log = LogForThisThread();
  if (log->open.empty()) return;
  Span& span = log->spans[log->open.back()];
  log->open.pop_back();
  span.end_ns = SteadyNs();
  if (!log->open.empty()) {
    log->spans[log->open.back()].child_ns += span.end_ns - span.start_ns;
  }
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::map<std::string, SelfTime> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (s.end_ns == 0) continue;  // still open
      SelfTime& t = out[s.name];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      t.count += 1;
      t.total_s += dur;
      t.self_s += dur - static_cast<double>(s.child_ns) * 1e-9;
    }
  }
  return out;
}

int64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& log : logs_) n += static_cast<int64_t>(log->spans.size());
  return n;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = 0;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& log : logs_) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"thread %d\"}}",
                 first ? "" : ",\n", log->tid, log->tid);
    first = false;
    for (const Span& s : log->spans) {
      if (s.end_ns == 0) continue;
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %lld, \"parent\": %lld, \"request\": %lld}}",
                   s.name, log->tid,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
