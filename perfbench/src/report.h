#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Measuring time; every workload but checker_selftest requires it.
  double seconds = 0.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_out;
  /// Shared kernel/serving pool size and closed-loop client count; fixed
  /// here rather than inherited from the machine (see README.md).
  int pool_threads = 2;
  int clients = 2;
};

/// Wall clock in seconds on the steady clock.
double NowSeconds();

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);

/// The highest percentile of the ladder 99.9 / 99 / 90 / 50 that has at
/// least ten samples beyond it (the median alone below forty samples).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
};
Tail TailOf(std::vector<double> v);

/// Tails of samples given in the order they were taken: the samples are
/// cut into consecutive blocks of 100 and each block's TailOf is taken —
/// its p90, the highest percentile with ten samples beyond it. tail_ms is
/// the median over blocks, so a burst of machine noise moves a few blocks'
/// tails rather than the whole run's.
struct BlockTails {
  std::vector<double> tails;
  size_t block = 0;
  double percentile = 0.0;
};
BlockTails BlockTailsOf(const std::vector<double>& in_order);

/// The values in milliseconds, in order, e.g. "41.2 39.8 40.5".
std::string MillisecondsList(const std::vector<double>& seconds);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Collects metrics, per-phase operation counts and correctness failures,
/// and prints the run's result as one JSON line: correct, attempted, failed
/// and the metrics.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Operations attempted and failed in one phase of the workload.
  void Phase(const std::string& name, int64_t attempted, int64_t failed);
  /// Records a failed correctness check (the run then exits non-zero).
  void Fail(const std::string& what);
  /// Adds a free-form line to the self-report printed on stderr.
  void Note(const std::string& key, const std::string& value);

  bool ok() const { return failures_.empty(); }
  /// Prints the self-report to stderr and the JSON line to stdout;
  /// returns the process exit code.
  int Emit(const RunArgs& args) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  struct PhaseCount {
    std::string name;
    int64_t attempted;
    int64_t failed;
  };
  std::vector<Entry> metrics_;
  std::vector<PhaseCount> phases_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
