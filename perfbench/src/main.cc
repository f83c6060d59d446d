// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints a self-report on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exits
// non-zero when any correctness check fails.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "util/thread_pool.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train_music_movie|serve_wide_catalog|checker_selftest> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "(--seconds is required by every workload but "
               "checker_selftest)\n",
               why);
  return 2;
}

/// Aggregate CPU time counters of the machine (/proc/stat "cpu" line): the
/// share stolen by the hypervisor during a run is the main source of
/// run-to-run noise on a shared VM, so the self-report prints it.
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  for (int i = 0; i < 8 && stat; ++i) {
    double v = 0;
    stat >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::string v = value;
      if (v != "0" && v != "1") return Usage("bad --trace");
      args.trace = v == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "checker_selftest" && args.seconds <= 0) {
    return Usage("missing --seconds");
  }

  // Fixed thread counts (README.md). Serving: two clients against two pool
  // threads (drainers), shrunk to stay within the machine's cores. Training:
  // one pool thread, so the default backend runs every kernel inline and a
  // step never waits on another vCPU of a shared machine.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (args.workload == "train_music_movie") {
    args.pool_threads = 1;
    args.clients = 0;
  } else {
    args.pool_threads =
        static_cast<int>(std::clamp<long>(nproc - args.clients, 1, 2));
  }
  nmcdr::ThreadPool::SetSharedThreads(args.pool_threads);

  perfbench::Report report;
  const CpuTimes cpu_before = ReadCpuTimes();
  if (args.workload == "train_music_movie") {
    perfbench::RunTrainWorkload(args, &report);
  } else if (args.workload == "serve_wide_catalog") {
    perfbench::RunServeWorkload(args, &report);
  } else if (args.workload == "checker_selftest") {
    perfbench::RunCheckerSelfTest(args, &report);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const CpuTimes cpu_after = ReadCpuTimes();
  if (cpu_after.total > cpu_before.total) {
    report.Note("cpu steal", std::to_string(100.0 * (cpu_after.steal - cpu_before.steal) /
                                            (cpu_after.total - cpu_before.total)) +
                                 "% of the machine's CPU time during the run");
  }
  return report.Emit(args);
}
