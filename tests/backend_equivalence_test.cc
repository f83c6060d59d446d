// Bit-exactness fuzz for the kernel backends (src/tensor/backend.h): every
// KernelBackend entry point must produce byte-identical results under the
// serial backend and under the parallel backend at several pool sizes —
// a 1-thread pool runs the register-blocked SIMD GEMM tiles inline, larger
// pools shard them — including 0-row, 1-row, and ragged-tail shapes: tails
// are where SIMD remainder handling breaks first. This is the enforcement
// arm of the backend contract — training and serving results must not
// depend on the backend or thread count. Trainer-level tests close the
// loop end to end: identical final loss serial vs parallel at 1 and 4
// threads, across the model zoo.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/nmcdr_model.h"
#include "obs/obs.h"
#include "tensor/backend.h"
#include "tensor/matrix_ops.h"
#include "tensor/rng.h"
#include "tests/test_util.h"
#include "train/registry.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

/// Uniform entries in [-2, 2) with ~1/8 exact zeros, so the GEMMs' `av ==
/// 0.f` skip path is exercised by the fuzz.
Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Bernoulli(0.125) ? 0.f : rng->Uniform(-2.f, 2.f);
  }
  return m;
}

/// Strictly positive entries for Log.
Matrix RandomPositiveMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(0.1f, 3.f);
  return m;
}

std::vector<int> RandomIds(int count, int table_rows, Rng* rng) {
  std::vector<int> ids(count);
  // Duplicates are likely by construction — ScatterAddRows must keep
  // colliding updates in serial order.
  for (int& id : ids) id = static_cast<int>(rng->NextUint64(table_rows));
  return ids;
}

::testing::AssertionResult BitEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (a.size() > 0 && std::memcmp(a.data(), b.data(),
                                  sizeof(float) * a.size()) != 0) {
    for (int i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first differing element " << i << ": " << a.data()[i]
               << " vs " << b.data()[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Pool sizes the parallel backend is fuzzed at. 1 (every kernel inline:
/// the single-threaded SIMD path), 2/3 (ragged splits of most shapes), 5
/// (more chunks than some dimensions).
const int kPoolSizes[] = {1, 2, 3, 5};

/// (rows, cols) shapes covering empty, single-row/col, and ragged tails
/// (sizes not divisible by typical chunk counts).
const int kShapes[][2] = {{0, 4}, {1, 1},  {1, 7},  {3, 5},
                          {7, 3}, {5, 17}, {33, 9}, {64, 1}};

/// Runs `check(serial, parallel)` once per fuzzed pool size, so every call
/// site fuzzes the optimized backend against the serial reference.
template <typename Fn>
void ForEachCheckedBackend(Fn check) {
  const SerialBackend& serial = SerialKernelBackend();
  for (int pool_size : kPoolSizes) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    ThreadPool pool(pool_size);
    const ParallelBackend parallel(&pool);
    check(serial, parallel);
  }
}

TEST(BackendEquivalenceTest, MatMulFamily) {
  Rng rng(11);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int m = shape[0], k = shape[1];
      const int n = 1 + static_cast<int>(rng.NextUint64(19));
      const Matrix a = RandomMatrix(m, k, &rng);
      const Matrix b = RandomMatrix(k, n, &rng);
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                   std::to_string(k) + "x" + std::to_string(n));

      Matrix out_s = RandomMatrix(m, n, &rng);  // accumulate onto noise
      Matrix out_p = out_s;
      s.MatMulAccumInto(a, b, &out_s);
      p.MatMulAccumInto(a, b, &out_p);
      EXPECT_TRUE(BitEqual(out_s, out_p));

      const Matrix ta = RandomMatrix(k, m, &rng);
      const Matrix tb = RandomMatrix(k, n, &rng);
      EXPECT_TRUE(BitEqual(s.MatMulTransA(ta, tb), p.MatMulTransA(ta, tb)));

      const Matrix bb = RandomMatrix(n, k, &rng);
      EXPECT_TRUE(BitEqual(s.MatMulTransB(a, bb), p.MatMulTransB(a, bb)));

      EXPECT_TRUE(BitEqual(s.Transpose(a), p.Transpose(a)));
    }
  });
}

TEST(BackendEquivalenceTest, ElementwiseAndBroadcast) {
  Rng rng(12);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      const Matrix b = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Add(a, b), p.Add(a, b)));
      EXPECT_TRUE(BitEqual(s.Sub(a, b), p.Sub(a, b)));
      EXPECT_TRUE(BitEqual(s.Hadamard(a, b), p.Hadamard(a, b)));
      EXPECT_TRUE(BitEqual(s.Axpby(a, 1.7f, b, -0.3f),
                           p.Axpby(a, 1.7f, b, -0.3f)));
      EXPECT_TRUE(BitEqual(s.Scale(a, -2.5f), p.Scale(a, -2.5f)));
      EXPECT_TRUE(BitEqual(s.AddScalar(a, 0.75f), p.AddScalar(a, 0.75f)));

      Matrix acc_s = RandomMatrix(r, c, &rng);
      Matrix acc_p = acc_s;
      s.AxpyInto(a, 0.5f, &acc_s);
      p.AxpyInto(a, 0.5f, &acc_p);
      EXPECT_TRUE(BitEqual(acc_s, acc_p));

      const Matrix row = RandomMatrix(1, c, &rng);
      EXPECT_TRUE(BitEqual(s.AddRowBroadcast(a, row),
                           p.AddRowBroadcast(a, row)));
      EXPECT_TRUE(BitEqual(s.ConcatCols(a, b), p.ConcatCols(a, b)));
    }
  });
}

TEST(BackendEquivalenceTest, Activations) {
  Rng rng(13);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Relu(a), p.Relu(a)));
      EXPECT_TRUE(BitEqual(s.Sigmoid(a), p.Sigmoid(a)));
      EXPECT_TRUE(BitEqual(s.Tanh(a), p.Tanh(a)));
      EXPECT_TRUE(BitEqual(s.Softplus(a), p.Softplus(a)));
      EXPECT_TRUE(BitEqual(s.Exp(a), p.Exp(a)));
      const Matrix pos = RandomPositiveMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.Log(pos), p.Log(pos)));
      if (c > 0) {
        EXPECT_TRUE(BitEqual(s.SoftmaxRows(a), p.SoftmaxRows(a)));
      }
    }
  });
}

TEST(BackendEquivalenceTest, Reductions) {
  Rng rng(14);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int r = shape[0], c = shape[1];
      SCOPED_TRACE(std::to_string(r) + "x" + std::to_string(c));
      const Matrix a = RandomMatrix(r, c, &rng);
      const Matrix b = RandomMatrix(r, c, &rng);
      EXPECT_TRUE(BitEqual(s.RowSum(a), p.RowSum(a)));
      EXPECT_TRUE(BitEqual(s.RowDot(a, b), p.RowDot(a, b)));
      EXPECT_TRUE(BitEqual(s.ColSum(a), p.ColSum(a)));
    }
  });
}

TEST(BackendEquivalenceTest, GatherAndScatter) {
  Rng rng(15);
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    const int table_rows = 23;
    for (int cols : {1, 5, 16}) {
      const Matrix table = RandomMatrix(table_rows, cols, &rng);
      for (int count : {0, 1, 7, 64}) {
        SCOPED_TRACE(std::to_string(count) + " ids, " + std::to_string(cols) +
                     " cols");
        const std::vector<int> ids = RandomIds(count, table_rows, &rng);
        EXPECT_TRUE(BitEqual(s.GatherRows(table, ids),
                             p.GatherRows(table, ids)));

        const Matrix src = RandomMatrix(count, cols, &rng);
        Matrix out_s = RandomMatrix(table_rows, cols, &rng);
        Matrix out_p = out_s;
        s.ScatterAddRows(src, ids, &out_s);
        p.ScatterAddRows(src, ids, &out_p);
        EXPECT_TRUE(BitEqual(out_s, out_p));
      }
    }
  });
}

/// The fused kernels (graph-program replay path): the GEMM+bias+activation
/// epilogue in every activation variant with and without bias (it runs
/// inside the SIMD tile cores), and the fused elementwise chain — all
/// bit-exact with serial under the parallel backend at every pool size.
TEST(BackendEquivalenceTest, FusedEpilogues) {
  Rng rng(17);
  const FusedAct kActs[] = {FusedAct::kNone, FusedAct::kRelu,
                            FusedAct::kSigmoid, FusedAct::kTanh};
  ForEachCheckedBackend([&](const KernelBackend& s, const KernelBackend& p) {
    for (const auto& shape : kShapes) {
      const int m = shape[0], k = shape[1];
      const int n = 1 + static_cast<int>(rng.NextUint64(19));
      const Matrix a = RandomMatrix(m, k, &rng);
      const Matrix b = RandomMatrix(k, n, &rng);
      const Matrix bias = RandomMatrix(1, n, &rng);
      SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + " * " +
                   std::to_string(k) + "x" + std::to_string(n));
      for (const FusedAct act : kActs) {
        SCOPED_TRACE("act " + std::to_string(static_cast<int>(act)));
        for (const Matrix* bias_arg : {&bias, static_cast<const Matrix*>(
                                                  nullptr)}) {
          Matrix out_s(m, n);
          Matrix out_p(m, n);
          s.FusedMatMulBiasActInto(a, b, bias_arg, act, &out_s);
          p.FusedMatMulBiasActInto(a, b, bias_arg, act, &out_p);
          EXPECT_TRUE(BitEqual(out_s, out_p));
        }
      }

      // A representative fused elementwise chain (the sigmoid-BCE shape):
      // sigmoid(cur), then side - cur, then scale.
      const Matrix side = RandomMatrix(m, k, &rng);
      EltwiseStep steps[3];
      steps[0].op = EltwiseOp::kSigmoid;
      steps[1].op = EltwiseOp::kSubMat;
      steps[1].rhs = true;
      steps[1].side = side.data();
      steps[2].op = EltwiseOp::kScale;
      steps[2].scalar = 0.5f;
      Matrix ew_s(m, k);
      Matrix ew_p(m, k);
      s.FusedEltwiseInto(a, steps, 3, &ew_s);
      p.FusedEltwiseInto(a, steps, 3, &ew_p);
      EXPECT_TRUE(BitEqual(ew_s, ew_p));
    }
  });
}

TEST(BackendEquivalenceTest, BackendGuardSelectsPerThread) {
  Rng rng(16);
  const Matrix a = RandomMatrix(4, 4, &rng);
  {
    BackendGuard guard(&SerialKernelBackend());
    EXPECT_STREQ(CurrentBackend().name(), "serial");
    {
      BackendGuard nested(&ParallelKernelBackend());
      EXPECT_STREQ(CurrentBackend().name(), "parallel");
      BackendGuard noop(nullptr);  // keeps whatever is current
      EXPECT_STREQ(CurrentBackend().name(), "parallel");
    }
    EXPECT_STREQ(CurrentBackend().name(), "serial");
    // Dispatchers follow the guard; result identical either way.
    EXPECT_TRUE(BitEqual(Add(a, a), SerialKernelBackend().Add(a, a)));
  }
}

/// End-to-end determinism: the same model trained with the serial backend
/// and with the parallel backend over a 4-thread pool reaches the
/// bit-identical final loss — the whole forward/backward/update chain is
/// backend-proof.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalAcrossBackends) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};
  ThreadPool pool(4);
  const ParallelBackend parallel(&pool);

  auto run = [&](const KernelBackend* backend) {
    BackendGuard guard(backend);
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  const float serial_loss = run(&SerialKernelBackend());
  const float parallel_loss = run(&parallel);
  EXPECT_EQ(serial_loss, parallel_loss);  // bitwise, not approximately
}

/// The single-threaded SIMD path end to end, across the model zoo: every
/// registered model trained on the parallel backend over a 1-thread pool
/// (every kernel inline, GEMMs in the register-blocked SIMD tiles) reaches
/// the bit-identical final loss of the serial run. This is the
/// trainer-level arm of the SIMD bit-exactness contract.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalVectorAcrossModels) {
  RegisterAllModels();
  CommonHyper hyper;
  hyper.embed_dim = 8;
  hyper.mlp_hidden = {16};
  hyper.seed = 3;
  ThreadPool pool(1);
  const ParallelBackend simd(&pool);

  for (const std::string& name : ModelRegistry::Instance().Names()) {
    SCOPED_TRACE("model " + name);
    auto run = [&](const KernelBackend* backend) {
      BackendGuard guard(backend);
      auto data = testing_util::TinyData();
      auto model = ModelRegistry::Instance().Get(name)(data->View(), hyper,
                                                       /*lr=*/1e-3f);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = 64;
      Trainer trainer(data->View(), config, &data->full_graph_z(),
                      &data->full_graph_zbar());
      return trainer.Train(model.get()).final_loss;
    };

    const float serial_loss = run(&SerialKernelBackend());
    const float simd_loss = run(&simd);
    EXPECT_EQ(serial_loss, simd_loss);  // bitwise, not approximately
  }
}

/// Graph-program fusion is numerics-neutral: every registered model
/// trained with the compiled fused program (TrainConfig::fusion) reaches
/// the bit-identical final loss of a fully eager run — under the serial
/// backend and under the parallel backend over a 4-thread pool. This is
/// the model-zoo-wide enforcement arm of the src/program bitwise contract;
/// models whose op streams the compiler cannot cover fall back to eager
/// and must still match trivially.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalFusedVsEager) {
  RegisterAllModels();
  CommonHyper hyper;
  hyper.embed_dim = 8;
  hyper.mlp_hidden = {16};
  hyper.seed = 3;
  ThreadPool pool(4);
  const ParallelBackend parallel(&pool);

  for (const std::string& name : ModelRegistry::Instance().Names()) {
    SCOPED_TRACE("model " + name);
    auto run = [&](bool fusion, const KernelBackend* backend) {
      BackendGuard guard(backend);
      auto data = testing_util::TinyData();
      auto model = ModelRegistry::Instance().Get(name)(data->View(), hyper,
                                                       /*lr=*/1e-3f);
      TrainConfig config;
      config.epochs = 2;
      config.batch_size = 64;
      config.fusion = fusion;
      Trainer trainer(data->View(), config, &data->full_graph_z(),
                      &data->full_graph_zbar());
      return trainer.Train(model.get()).final_loss;
    };

    const SerialBackend* serial = &SerialKernelBackend();
    const float eager_serial = run(/*fusion=*/false, serial);
    const float fused_serial = run(/*fusion=*/true, serial);
    const float eager_parallel = run(/*fusion=*/false, &parallel);
    const float fused_parallel = run(/*fusion=*/true, &parallel);
    EXPECT_EQ(eager_serial, fused_serial);      // bitwise, not approximately
    EXPECT_EQ(eager_parallel, fused_parallel);
    EXPECT_EQ(eager_serial, eager_parallel);
  }
}

/// Observability is read-only: training with metrics + profiling enabled
/// must produce the bit-identical final loss as training with both
/// disabled. The probes (KernelScope, OpScope, TraceSpan, backward
/// timing) may only observe — never perturb — the numeric path.
TEST(BackendEquivalenceTest, TrainerFinalLossIdenticalWithObsOnAndOff) {
  NmcdrConfig model_config;
  model_config.hidden_dim = 8;
  model_config.mlp_hidden = {16};
  ThreadPool pool(2);
  const ParallelBackend parallel(&pool);

  auto run = [&](bool metrics, bool profiling) {
    BackendGuard guard(&parallel);
    obs::MetricsEnabledGuard metrics_guard(metrics);
    obs::ProfilingEnabledGuard profiling_guard(profiling);
    auto data = testing_util::TinyData();
    NmcdrModel model(data->View(), model_config, /*seed=*/3, 1e-3f);
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 64;
    Trainer trainer(data->View(), config);
    return trainer.Train(&model).final_loss;
  };

  const float off_loss = run(/*metrics=*/false, /*profiling=*/false);
  const float metrics_loss = run(/*metrics=*/true, /*profiling=*/false);
  const float profiled_loss = run(/*metrics=*/true, /*profiling=*/true);
  EXPECT_EQ(off_loss, metrics_loss);    // bitwise, not approximately
  EXPECT_EQ(off_loss, profiled_loss);
}

}  // namespace
}  // namespace nmcdr
