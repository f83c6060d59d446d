#include "report.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank; the epsilon keeps 0.9 * 100 from ranking as 91.
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  const size_t n = v.size();
  for (size_t permille : {999, 990, 900}) {
    const size_t rank = (permille * n + 999) / 1000;  // nearest rank
    if (n - rank >= 10) {
      tail.percentile = static_cast<double>(permille) / 10.0;
      tail.value = Quantile(std::move(v), static_cast<double>(permille) / 1000.0);
      return tail;
    }
  }
  tail.value = Median(std::move(v));
  return tail;
}

BlockTails BlockTailsOf(const std::vector<double>& in_order) {
  BlockTails out;
  out.block = std::clamp<size_t>(in_order.size(), 1, 100);
  for (size_t first = 0; first + out.block <= in_order.size();
       first += out.block) {
    const auto begin = in_order.begin() + static_cast<ptrdiff_t>(first);
    const Tail t = TailOf(
        std::vector<double>(begin, begin + static_cast<ptrdiff_t>(out.block)));
    out.tails.push_back(t.value);
    out.percentile = t.percentile;
  }
  return out;
}

std::string MillisecondsList(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : " ", s * 1e3);
    out += buf;
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Phase(const std::string& name, int64_t attempted,
                   int64_t failed) {
  for (PhaseCount& p : phases_) {
    if (p.name == name) {
      p.attempted += attempted;
      p.failed += failed;
      return;
    }
  }
  phases_.push_back({name, attempted, failed});
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

int Report::Emit(const RunArgs& args) const {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::fprintf(stderr, "== perfbench self-report: %s ==\n",
               args.workload.c_str());
  std::fprintf(stderr, "  seed %llu, seconds %.3g, trace %d, build %s\n",
               static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  std::fprintf(stderr, "  pool threads %d, clients %d, nproc %ld\n",
               args.pool_threads, args.clients, sysconf(_SC_NPROCESSORS_ONLN));
  for (const auto& [key, value] : notes_) {
    std::fprintf(stderr, "  %s: %s\n", key.c_str(), value.c_str());
  }
  for (const PhaseCount& p : phases_) {
    std::fprintf(stderr, "  phase %-24s attempted %lld failed %lld\n",
                 p.name.c_str(), static_cast<long long>(p.attempted),
                 static_cast<long long>(p.failed));
    attempted += p.attempted;
    failed += p.failed;
  }
  for (const Entry& m : metrics_) {
    std::fprintf(stderr, "  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              ok() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted, 1)),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok() ? 0 : 1;
}

}  // namespace perfbench
