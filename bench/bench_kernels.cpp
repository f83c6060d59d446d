// Dense-kernel micro-benchmark for the execution backends
// (src/tensor/backend.h): serial GFLOP/s, single-threaded SIMD GFLOP/s
// (`vector_gflops`: the parallel backend over a 1-thread pool, where every
// kernel runs inline) for the register-blocked GEMM family, and parallel
// thread-scaling at 1/2/4 threads for the hot KernelBackend entry points
// on training-shaped matrices (batch x hidden blocks as the trainer sees
// them). Before timing, every kernel's parallel output at each pool size
// is checked bit-equal to the serial reference, so the numbers can never
// come from a divergent code path.
//
// Speedup columns report thread scaling of the parallel backend itself
// (parallel@1 / parallel@t seconds), so they isolate the tile-sharding
// win from the vectorization win that `vector_gflops` already captures.
// With >= 4 free cores, a kernel whose 4-thread scaling falls below the
// floor (0.9 full, 0.7 smoke — the looser smoke floor absorbs the short
// timing budget's noise) fails the run: that is the regression gate that
// caught ScatterAddRows scattering slower in parallel than inline.
//
// Writes BENCH_kernels.json next to the binary so the perf trajectory has a
// machine-readable baseline; the file records hardware_concurrency because
// speedups are only meaningful with as many cores as pool threads.
//
// `--smoke` shrinks the timing budget so the binary doubles as a CTest.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tensor/backend.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

/// Thread counts the parallel backend is measured at.
const int kThreadCounts[] = {1, 2, 4};

/// Interleaved timing rounds per thread count; each count keeps its
/// fastest round.
constexpr int kTimingRounds = 5;

/// One benchmarked kernel: `run` executes it once under a backend and
/// returns the result for the bit-equality check. `vectorized` marks the
/// GEMM-family kernels that run the SIMD tile cores (the rest run the
/// serial loops, so a SIMD GFLOP/s column for them would say nothing).
struct KernelCase {
  std::string name;
  std::string shape;
  double flops = 0.0;  // nominal flops per run, for the GFLOP/s column
  bool vectorized = false;
  std::function<Matrix(const KernelBackend&)> run;
};

struct KernelResult {
  std::string name;
  std::string shape;
  double serial_gflops = 0.0;
  double vector_gflops = 0.0;   // 0 when the kernel is not vectorized
  std::vector<double> speedup;  // parallel@1 / parallel@t, t in kThreadCounts
};

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.f, 1.f);
  return m;
}

/// Seconds per run of `fn`, timed until `min_seconds` of work accumulated.
double SecondsPerRun(const std::function<Matrix(const KernelBackend&)>& fn,
                     const KernelBackend& backend, double min_seconds) {
  fn(backend);  // warm-up
  Stopwatch timer;
  int64_t runs = 0;
  do {
    fn(backend);
    ++runs;
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() / static_cast<double>(runs);
}

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 || std::memcmp(a.data(), b.data(),
                                       sizeof(float) * a.size()) == 0);
}

/// Measures one kernel under the serial backend and the parallel backend
/// at every pool size; dies loudly if any parallel result diverges from
/// the reference.
KernelResult MeasureKernel(const KernelCase& kernel, double min_seconds,
                           bool* equivalence_ok) {
  const SerialBackend& serial = SerialKernelBackend();
  KernelResult result;
  result.name = kernel.name;
  result.shape = kernel.shape;
  const Matrix want = kernel.run(serial);
  const double serial_seconds =
      SecondsPerRun(kernel.run, serial, min_seconds);
  result.serial_gflops = kernel.flops / serial_seconds * 1e-9;

  // Thread scaling: time the parallel backend at every count and report
  // each relative to its own 1-thread time, so the column measures the
  // tile sharding alone (its kernels already run the SIMD cores). The
  // counts are timed in interleaved rounds and each keeps its fastest
  // round: interference from other load on the machine only ever adds
  // time, so the minimum is the least noisy estimate, and interleaving
  // keeps a burst of it from landing on one count alone.
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<ParallelBackend> backends;
  for (int threads : kThreadCounts) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
    backends.emplace_back(pools.back().get());
    if (!BitEqual(want, kernel.run(backends.back()))) {
      std::fprintf(stderr, "FAIL: %s diverges at %d threads\n",
                   kernel.name.c_str(), threads);
      *equivalence_ok = false;
    }
  }
  std::vector<double> parallel_seconds(backends.size(), 0.0);
  for (int round = 0; round < kTimingRounds; ++round) {
    for (size_t t = 0; t < backends.size(); ++t) {
      const double seconds =
          SecondsPerRun(kernel.run, backends[t], min_seconds);
      if (round == 0 || seconds < parallel_seconds[t]) {
        parallel_seconds[t] = seconds;
      }
    }
  }
  for (double seconds : parallel_seconds) {
    result.speedup.push_back(parallel_seconds.front() / seconds);
  }
  // The 1-thread pool runs every tile inline: that time is the
  // single-threaded SIMD throughput.
  if (kernel.vectorized) {
    result.vector_gflops = kernel.flops / parallel_seconds.front() * 1e-9;
  }
  return result;
}

/// The benchmarked kernel set on training-shaped operands: a forward/
/// backward pass over a 512-example batch with hidden width 64 against a
/// 4096-row embedding table. Inputs live in `*store` so the lambdas can
/// capture references that outlive this function.
std::vector<KernelCase> BuildKernelCases(std::vector<Matrix>* store,
                                         std::vector<int>* ids) {
  Rng rng(29);
  const int batch = 512, hidden = 64, table_rows = 4096;
  store->clear();
  store->push_back(RandomMatrix(batch, hidden, &rng));       // 0: activations
  store->push_back(RandomMatrix(hidden, hidden, &rng));      // 1: weights
  store->push_back(RandomMatrix(batch, hidden, &rng));       // 2: second act
  store->push_back(RandomMatrix(table_rows, hidden, &rng));  // 3: table
  store->push_back(RandomMatrix(1, hidden, &rng));           // 4: bias row
  const Matrix& act = (*store)[0];
  const Matrix& w = (*store)[1];
  const Matrix& act2 = (*store)[2];
  const Matrix& table = (*store)[3];
  const Matrix& bias = (*store)[4];
  ids->resize(batch);
  for (int& id : *ids) id = static_cast<int>(rng.NextUint64(table_rows));
  const std::vector<int>& id_ref = *ids;

  const double gemm_flops = 2.0 * batch * hidden * hidden;
  const double ew_flops = 1.0 * batch * hidden;
  const std::string bxh =
      std::to_string(batch) + "x" + std::to_string(hidden);
  const std::string gemm_shape = bxh + " * " + std::to_string(hidden) + "x" +
                                 std::to_string(hidden);

  std::vector<KernelCase> cases;
  cases.push_back({"MatMul", gemm_shape, gemm_flops, true,
                   [&act, &w](const KernelBackend& b) {
                     Matrix out(act.rows(), w.cols());
                     b.MatMulAccumInto(act, w, &out);
                     return out;
                   }});
  cases.push_back({"MatMulTransA", bxh + "^T * " + bxh, gemm_flops, true,
                   [&act, &act2](const KernelBackend& b) {
                     return b.MatMulTransA(act, act2);
                   }});
  cases.push_back({"MatMulTransB", gemm_shape + "^T", gemm_flops, true,
                   [&act, &w](const KernelBackend& b) {
                     return b.MatMulTransB(act, w);
                   }});
  // The graph-program replay epilogue: GEMM + bias + relu in one pass, the
  // shape every fused forward layer takes. Exercises the SIMD epilogue's
  // bit-exactness against serial on every run.
  cases.push_back({"FusedMatMulBiasAct", gemm_shape + " +b relu",
                   gemm_flops + 2.0 * batch * hidden, true,
                   [&act, &w, &bias](const KernelBackend& b) {
                     Matrix out(act.rows(), w.cols());
                     b.FusedMatMulBiasActInto(act, w, &bias, FusedAct::kRelu,
                                              &out);
                     return out;
                   }});
  cases.push_back({"Add", bxh, ew_flops, false,
                   [&act, &act2](const KernelBackend& b) {
                     return b.Add(act, act2);
                   }});
  cases.push_back({"Sigmoid", bxh, 4.0 * batch * hidden, false,
                   [&act](const KernelBackend& b) { return b.Sigmoid(act); }});
  cases.push_back({"SoftmaxRows", bxh, 5.0 * batch * hidden, false,
                   [&act](const KernelBackend& b) {
                     return b.SoftmaxRows(act);
                   }});
  cases.push_back({"ColSum", bxh, ew_flops, false,
                   [&act](const KernelBackend& b) { return b.ColSum(act); }});
  cases.push_back({"GatherRows",
                   std::to_string(table.rows()) + "x" +
                       std::to_string(hidden) + " [" +
                       std::to_string(batch) + " ids]",
                   ew_flops, false,
                   [&table, &id_ref](const KernelBackend& b) {
                     return b.GatherRows(table, id_ref);
                   }});
  cases.push_back({"ScatterAddRows",
                   bxh + " -> " + std::to_string(table.rows()) + " rows",
                   ew_flops, false,
                   [&act, &table, &id_ref](const KernelBackend& b) {
                     Matrix out(table.rows(), table.cols());
                     b.ScatterAddRows(act, id_ref, &out);
                     return out;
                   }});
  return cases;
}

void WriteJson(const std::string& path,
               const std::vector<KernelResult>& results, bool smoke) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"thread_counts\": [1, 2, 4],\n";
  out << "  \"kernels\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"shape\": \"" << r.shape
        << "\", \"serial_gflops\": " << FormatFloat(r.serial_gflops, 4);
    if (r.vector_gflops > 0.0) {
      out << ", \"vector_gflops\": " << FormatFloat(r.vector_gflops, 4);
    }
    out << ", \"speedup\": {";
    for (size_t t = 0; t < r.speedup.size(); ++t) {
      out << "\"" << kThreadCounts[t]
          << "\": " << FormatFloat(r.speedup[t], 3)
          << (t + 1 < r.speedup.size() ? ", " : "");
    }
    out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(bool smoke) {
  std::printf("bench_kernels (%s, hardware_concurrency=%u)\n",
              smoke ? "smoke" : "full", std::thread::hardware_concurrency());
  const double min_seconds = smoke ? 0.01 : 0.25;

  std::vector<Matrix> store;
  std::vector<int> ids;
  const std::vector<KernelCase> cases = BuildKernelCases(&store, &ids);

  bool equivalence_ok = true;
  std::vector<KernelResult> results;
  for (const KernelCase& kernel : cases) {
    results.push_back(MeasureKernel(kernel, min_seconds, &equivalence_ok));
  }

  TablePrinter table;
  table.SetHeader({"Kernel", "Shape", "Serial GFLOP/s", "Vector GFLOP/s",
                   "x1", "x2", "x4"});
  for (const KernelResult& r : results) {
    table.AddRow({r.name, r.shape, FormatFloat(r.serial_gflops, 3),
                  r.vector_gflops > 0.0 ? FormatFloat(r.vector_gflops, 3)
                                        : std::string("-"),
                  FormatFloat(r.speedup[0], 2) + "x",
                  FormatFloat(r.speedup[1], 2) + "x",
                  FormatFloat(r.speedup[2], 2) + "x"});
  }
  std::printf("%s", table.ToString().c_str());

  WriteJson("BENCH_kernels.json", results, smoke);

  // With enough free cores for the 4-thread pool, thread scaling below the
  // floor is a real regression (a kernel whose parallel path is slower
  // than its own 1-thread run), not noise — fail the run so CI gates it.
  bool scaling_ok = true;
  if (std::thread::hardware_concurrency() >= 4) {
    const double floor = smoke ? 0.7 : 0.9;
    for (const KernelResult& r : results) {
      const double x4 = r.speedup.back();
      if (x4 < floor) {
        std::fprintf(stderr,
                     "FAIL: %s 4-thread scaling %.2fx below the %.1fx floor\n",
                     r.name.c_str(), x4, floor);
        scaling_ok = false;
      }
    }
  }
  // The speedup columns depend on free cores, but a parallel result that
  // differs from serial is always a hard failure.
  return equivalence_ok && scaling_ok ? 0 : 1;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nmcdr::Run(smoke);
}
