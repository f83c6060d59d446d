// Bit-identity of the lane-wise scoring cores (serving/scoring_kernels.cc)
// against a scalar reference that keeps the per-item loops they replaced
// verbatim. Covers first-layer widths on and off the 8-lane grid, gmf dims
// on and off it, heads with zero, one and several tail layers, every
// activation, special values (±0, NaN, ±inf, denormals) and non-contiguous
// id lists, for FastScoreIds and QuantizedScoreIds.
//
// NaN outputs compare as equal whatever their payload: IEEE 754 leaves the
// payload of an operation on two NaNs unspecified and the compiler may
// commute the operands of +, so only "is NaN" is part of the contract.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serving/quantized_snapshot.h"
#include "serving/scoring_kernels.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace nmcdr {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference: the per-item loops as they were before the lane-wise
// rewrite, kept verbatim (only renamed into this namespace).
namespace ref {

void ActivateInPlace(float* h, int n, ag::Activation act) {
  switch (act) {
    case ag::Activation::kNone:
      return;
    case ag::Activation::kRelu:
      for (int j = 0; j < n; ++j) h[j] = h[j] > 0.f ? h[j] : 0.f;
      return;
    case ag::Activation::kSigmoid:
      for (int j = 0; j < n; ++j) h[j] = 1.f / (1.f + std::exp(-h[j]));
      return;
    case ag::Activation::kTanh:
      for (int j = 0; j < n; ++j) h[j] = std::tanh(h[j]);
      return;
  }
}

void FastScoreIds(const FrozenPredictionHead& head, const Matrix& item_reps,
                  const Matrix& item_first, const float* u,
                  const float* u_first, const int* ids, int n, float* h_buf,
                  float* next_buf, float* out) {
  const int dim = head.dim();
  const int hidden = head.b0.cols();
  const float* gmf_w = head.gmf_w.data();  // [dim, 1], contiguous
  const float gmf_bias = head.gmf_b.data()[0];

  float* h = h_buf;
  float* next = next_buf;

  for (int i = 0; i < n; ++i) {
    const int item = ids[i];
    const float* p = item_first.row(item);  // item partial + b0
    const float* v = item_reps.row(item);
    for (int j = 0; j < hidden; ++j) h[j] = u_first[j] + p[j];
    int width = hidden;
    for (size_t l = 0; l < head.w.size(); ++l) {
      const Matrix& w = head.w[l];
      const int out_width = w.cols();
      const float* bias = head.b[l].data();
      std::copy(bias, bias + out_width, next);
      ActivateInPlace(h, width, head.hidden_act);
      const float* wdata = w.data();
      if (out_width == 1) {
        // Four independent accumulators break the serial float-add
        // dependency chain (the compiler cannot reassociate it itself).
        float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
        int r = 0;
        for (; r + 4 <= width; r += 4) {
          a0 += h[r] * wdata[r];
          a1 += h[r + 1] * wdata[r + 1];
          a2 += h[r + 2] * wdata[r + 2];
          a3 += h[r + 3] * wdata[r + 3];
        }
        for (; r < width; ++r) a0 += h[r] * wdata[r];
        next[0] += (a0 + a1) + (a2 + a3);
      } else {
        for (int r = 0; r < width; ++r) {
          const float hr = h[r];
          const float* wrow = wdata + static_cast<size_t>(r) * out_width;
          for (int c = 0; c < out_width; ++c) next[c] += hr * wrow[c];
        }
      }
      std::swap(h, next);
      width = out_width;
    }
    float g0 = 0.f, g1 = 0.f;
    int j = 0;
    for (; j + 2 <= dim; j += 2) {
      g0 += (u[j] * v[j]) * gmf_w[j];
      g1 += (u[j + 1] * v[j + 1]) * gmf_w[j + 1];
    }
    for (; j < dim; ++j) g0 += (u[j] * v[j]) * gmf_w[j];
    out[i] = h[0] + (gmf_bias + g0 + g1);
  }
}

void QuantizedScoreIds(const FrozenPredictionHead& head,
                       const QuantizedRows& item_first,
                       const QuantizedRows& item_gmf, const float* u_first,
                       const scoring::QuantizedUser& user, const int* ids,
                       int n, float* h_buf, float* next_buf, float* out) {
  const int dim = head.dim();
  const int hidden = head.b0.cols();
  const float gmf_bias = head.gmf_b.data()[0];
  const int32_t zu = user.zero;

  float* h = h_buf;
  float* next = next_buf;

  for (int i = 0; i < n; ++i) {
    const int item = ids[i];
    const int8_t* p = item_first.row(item);
    const float ps = item_first.scale[item];
    const float pz = static_cast<float>(item_first.zero[item]);
    for (int j = 0; j < hidden; ++j) {
      h[j] = u_first[j] + ps * (static_cast<float>(p[j]) - pz);
    }
    int width = hidden;
    for (size_t l = 0; l < head.w.size(); ++l) {
      const Matrix& w = head.w[l];
      const int out_width = w.cols();
      const float* bias = head.b[l].data();
      std::copy(bias, bias + out_width, next);
      ActivateInPlace(h, width, head.hidden_act);
      const float* wdata = w.data();
      if (out_width == 1) {
        float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
        int r = 0;
        for (; r + 4 <= width; r += 4) {
          a0 += h[r] * wdata[r];
          a1 += h[r + 1] * wdata[r + 1];
          a2 += h[r + 2] * wdata[r + 2];
          a3 += h[r + 3] * wdata[r + 3];
        }
        for (; r < width; ++r) a0 += h[r] * wdata[r];
        next[0] += (a0 + a1) + (a2 + a3);
      } else {
        for (int r = 0; r < width; ++r) {
          const float hr = h[r];
          const float* wrow = wdata + static_cast<size_t>(r) * out_width;
          for (int c = 0; c < out_width; ++c) next[c] += hr * wrow[c];
        }
      }
      std::swap(h, next);
      width = out_width;
    }
    const int8_t* qv = item_gmf.row(item);
    int32_t acc0 = 0, acc1 = 0;
    int j = 0;
    for (; j + 2 <= dim; j += 2) {
      acc0 += static_cast<int32_t>(user.q[j]) * qv[j];
      acc1 += static_cast<int32_t>(user.q[j + 1]) * qv[j + 1];
    }
    for (; j < dim; ++j) acc0 += static_cast<int32_t>(user.q[j]) * qv[j];
    const int32_t zv = item_gmf.zero[item];
    const int64_t bracket =
        static_cast<int64_t>(acc0) + acc1 -
        static_cast<int64_t>(zv) * user.qsum -
        static_cast<int64_t>(zu) * item_gmf.qsum[item] +
        static_cast<int64_t>(dim) * zu * zv;
    const float g =
        user.scale * item_gmf.scale[item] * static_cast<float>(bracket);
    out[i] = h[0] + (gmf_bias + g);
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Fixtures.

constexpr int kItems = 48;

const int kHiddenWidths[] = {1, 3, 4, 5, 12, 16, 32, 33};
const int kDims[] = {1, 7, 8, 16, 17};
const std::vector<std::vector<int>> kTails = {{}, {1}, {8, 1}, {16, 4, 1}};
const ag::Activation kActivations[] = {
    ag::Activation::kRelu, ag::Activation::kNone, ag::Activation::kSigmoid,
    ag::Activation::kTanh};

/// Inputs a kernel may see besides ordinary values.
const float kSpecials[] = {
    0.f,
    -0.f,
    std::numeric_limits<float>::quiet_NaN(),
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    std::numeric_limits<float>::min() / 3.f,  // denormal
    3e38f,
};

/// Fills `x` with uniform values; with `specials`, about one element in
/// five is replaced by an entry of kSpecials.
void Fill(float* x, size_t n, bool specials, Rng* rng) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng->Uniform(-1.5f, 1.5f);
    if (specials && rng->UniformDouble() < 0.2) {
      x[i] = kSpecials[rng->NextUint64(std::size(kSpecials))];
    }
  }
}

Matrix RandomMatrix(int rows, int cols, bool specials, Rng* rng) {
  Matrix m(rows, cols);
  Fill(m.data(), m.size(), specials, rng);
  return m;
}

FrozenPredictionHead MakeHead(int dim, int hidden,
                              const std::vector<int>& tail,
                              ag::Activation act, Rng* rng) {
  FrozenPredictionHead head;
  head.w0_user = RandomMatrix(dim, hidden, false, rng);
  head.w0_item = RandomMatrix(dim, hidden, false, rng);
  head.b0 = RandomMatrix(1, hidden, false, rng);
  int width = hidden;
  for (int out_width : tail) {
    head.w.push_back(RandomMatrix(width, out_width, false, rng));
    head.b.push_back(RandomMatrix(1, out_width, false, rng));
    width = out_width;
  }
  head.hidden_act = act;
  head.gmf_w = RandomMatrix(dim, 1, false, rng);
  head.gmf_b = RandomMatrix(1, 1, false, rng);
  return head;
}

/// A non-contiguous candidate list: a strided walk, a few random picks
/// (repeats allowed), and the last row.
std::vector<int> NonContiguousIds(Rng* rng) {
  std::vector<int> ids;
  for (int i = kItems - 2; i >= 0; i -= 3) ids.push_back(i);
  for (int i = 0; i < 9; ++i) {
    ids.push_back(static_cast<int>(rng->NextUint64(kItems)));
  }
  ids.push_back(kItems - 1);
  return ids;
}

bool SameBits(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  uint32_t ab = 0, bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

std::string ShapeName(int dim, int hidden, const std::vector<int>& tail,
                      ag::Activation act) {
  std::ostringstream os;
  os << "dim=" << dim << " hidden=" << hidden << " tail=[";
  for (size_t l = 0; l < tail.size(); ++l) os << (l ? "," : "") << tail[l];
  os << "] act=" << static_cast<int>(act);
  return os.str();
}

/// Number of mismatching outputs (and the first one, for the message).
::testing::AssertionResult AllSameBits(const std::vector<float>& got,
                                       const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "size " << got.size() << " vs "
                                         << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameBits(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "output " << i << ": " << got[i] << " vs reference "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs the lane-wise and the reference kFast core on one head shape and
/// returns whether every output matched bit for bit.
::testing::AssertionResult FastMatches(int dim, int hidden,
                                       const std::vector<int>& tail,
                                       ag::Activation act, bool specials,
                                       uint64_t seed) {
  Rng rng(seed);
  const FrozenPredictionHead head = MakeHead(dim, hidden, tail, act, &rng);
  const Matrix item_reps = RandomMatrix(kItems, dim, specials, &rng);
  Matrix item_first = scoring::BuildItemFirst(head, item_reps);
  std::vector<float> u(dim), u_first(hidden);
  Fill(u.data(), u.size(), specials, &rng);
  scoring::UserFirstPartial(head, u.data(), u_first.data());
  if (specials) {
    Fill(item_first.data(), item_first.size(), true, &rng);
    Fill(u_first.data(), u_first.size(), true, &rng);
    // -0 + -0 stays -0: the one way a first-layer sum reaches the
    // activation as -0.
    u_first[0] = -0.f;
    std::fill(item_first.row(0), item_first.row(0) + hidden, -0.f);
  }
  const std::vector<int> ids = NonContiguousIds(&rng);
  const int n = static_cast<int>(ids.size());
  const int width = scoring::MaxHeadWidth(head);
  // Scratch of exactly MaxHeadWidth floats, as the header documents: a
  // sanitizer build catches any lane store past it.
  std::vector<float> h(width), next(width), got(n), want(n);
  scoring::FastScoreIds(head, item_reps, item_first, u.data(), u_first.data(),
                        ids.data(), n, h.data(), next.data(), got.data());
  ref::FastScoreIds(head, item_reps, item_first, u.data(), u_first.data(),
                    ids.data(), n, h.data(), next.data(), want.data());
  return AllSameBits(got, want);
}

/// Hand-built int8 rows: random codes over the whole range (including
/// -128 and 127), positive scales (one denormal) and bounded zero points.
QuantizedRows RandomQuantizedRows(int rows, int cols, Rng* rng) {
  QuantizedRows q;
  q.rows = rows;
  q.cols = cols;
  q.q.resize(static_cast<size_t>(rows) * cols);
  for (int8_t& code : q.q) {
    code = static_cast<int8_t>(static_cast<int>(rng->NextUint64(256)) - 128);
  }
  q.scale.resize(rows);
  q.zero.resize(rows);
  q.qsum.resize(rows);
  for (int r = 0; r < rows; ++r) {
    q.scale[r] = r == 1 ? std::numeric_limits<float>::denorm_min()
                        : rng->Uniform(1e-3f, 0.05f);
    q.zero[r] = static_cast<int32_t>(rng->NextUint64(255)) - 127;
    int32_t sum = 0;
    for (int c = 0; c < cols; ++c) sum += q.row(r)[c];
    q.qsum[r] = sum;
  }
  return q;
}

::testing::AssertionResult QuantizedMatches(int dim, int hidden,
                                            const std::vector<int>& tail,
                                            ag::Activation act, bool specials,
                                            uint64_t seed) {
  Rng rng(seed);
  const FrozenPredictionHead head = MakeHead(dim, hidden, tail, act, &rng);
  const QuantizedRows item_first = RandomQuantizedRows(kItems, hidden, &rng);
  const QuantizedRows item_gmf = RandomQuantizedRows(kItems, dim, &rng);
  std::vector<float> u(dim), u_first(hidden), uw(dim);
  std::vector<int8_t> qu(dim);
  Fill(u.data(), u.size(), false, &rng);
  scoring::UserFirstPartial(head, u.data(), u_first.data());
  const scoring::QuantizedUser user =
      scoring::QuantizeUserGmf(head, u.data(), uw.data(), qu.data());
  if (specials) Fill(u_first.data(), u_first.size(), true, &rng);
  const std::vector<int> ids = NonContiguousIds(&rng);
  const int n = static_cast<int>(ids.size());
  const int width = scoring::MaxHeadWidth(head);
  std::vector<float> h(width), next(width), got(n), want(n);
  scoring::QuantizedScoreIds(head, item_first, item_gmf, u_first.data(), user,
                             ids.data(), n, h.data(), next.data(),
                             got.data());
  ref::QuantizedScoreIds(head, item_first, item_gmf, u_first.data(), user,
                         ids.data(), n, h.data(), next.data(), want.data());
  return AllSameBits(got, want);
}

// ---------------------------------------------------------------------------
// Tests.

TEST(ScoringKernelsTest, FastScoreIdsMatchesScalarReferenceOnEveryShape) {
  uint64_t seed = 1;
  for (int hidden : kHiddenWidths) {
    for (int dim : kDims) {
      for (const std::vector<int>& tail : kTails) {
        for (ag::Activation act : kActivations) {
          SCOPED_TRACE(ShapeName(dim, hidden, tail, act));
          EXPECT_TRUE(FastMatches(dim, hidden, tail, act, false, ++seed));
        }
      }
    }
  }
}

TEST(ScoringKernelsTest, FastScoreIdsMatchesScalarReferenceOnSpecialValues) {
  uint64_t seed = 1000;
  for (int hidden : kHiddenWidths) {
    for (int dim : kDims) {
      for (const std::vector<int>& tail : kTails) {
        for (ag::Activation act : kActivations) {
          SCOPED_TRACE(ShapeName(dim, hidden, tail, act));
          EXPECT_TRUE(FastMatches(dim, hidden, tail, act, true, ++seed));
        }
      }
    }
  }
}

TEST(ScoringKernelsTest,
     QuantizedScoreIdsMatchesScalarReferenceOnEveryShape) {
  uint64_t seed = 2000;
  for (int hidden : kHiddenWidths) {
    for (int dim : kDims) {
      for (const std::vector<int>& tail : kTails) {
        for (ag::Activation act : kActivations) {
          SCOPED_TRACE(ShapeName(dim, hidden, tail, act));
          EXPECT_TRUE(QuantizedMatches(dim, hidden, tail, act, false, ++seed));
        }
      }
    }
  }
}

TEST(ScoringKernelsTest,
     QuantizedScoreIdsMatchesScalarReferenceOnSpecialValues) {
  uint64_t seed = 3000;
  for (int hidden : kHiddenWidths) {
    for (int dim : kDims) {
      for (const std::vector<int>& tail : kTails) {
        for (ag::Activation act : kActivations) {
          SCOPED_TRACE(ShapeName(dim, hidden, tail, act));
          EXPECT_TRUE(QuantizedMatches(dim, hidden, tail, act, true, ++seed));
        }
      }
    }
  }
}

TEST(ScoringKernelsTest, ReluZeroesNaNAndNonPositiveInputs) {
  // Only unit 0 carries weight: with w = 1 and b = 0 the MLP output is the
  // activated first-layer value, and gmf is zeroed out. A -0 out of the
  // activation cannot reach the score (the +0-initialised accumulator
  // absorbs it), so -0 in must come out as +0 whichever way ReLU maps it;
  // NaN must be zeroed by the select, not propagated.
  for (int hidden : {1, 8, 16}) {
    FrozenPredictionHead head;
    head.w0_user = Matrix(1, hidden);
    head.w0_item = Matrix(1, hidden);
    head.b0 = Matrix(1, hidden);
    head.w.push_back(Matrix(hidden, 1));
    head.b.push_back(Matrix(1, 1));
    head.w[0].At(0, 0) = 1.f;
    head.hidden_act = ag::Activation::kRelu;
    head.gmf_w = Matrix(1, 1);
    head.gmf_b = Matrix(1, 1);
    const float inputs[] = {-0.f, std::numeric_limits<float>::quiet_NaN(),
                            -2.f, 3.f};
    Matrix item_first(static_cast<int>(std::size(inputs)), hidden);
    for (int r = 0; r < item_first.rows(); ++r) item_first.At(r, 0) = inputs[r];
    const Matrix item_reps(item_first.rows(), 1);
    const float u = 0.f;
    std::vector<float> u_first(hidden, -0.f), h(hidden), next(hidden);
    const int ids[] = {0, 1, 2, 3};
    float out[4];
    scoring::FastScoreIds(head, item_reps, item_first, &u, u_first.data(), ids,
                          4, h.data(), next.data(), out);
    SCOPED_TRACE(hidden);
    EXPECT_TRUE(SameBits(out[0], 0.f));
    EXPECT_TRUE(SameBits(out[1], 0.f));
    EXPECT_TRUE(SameBits(out[2], 0.f));
    EXPECT_TRUE(SameBits(out[3], 3.f));
  }
}

TEST(ScoringKernelsTest, EmptyIdListWritesNothing) {
  Rng rng(5);
  const FrozenPredictionHead head =
      MakeHead(16, 16, {1}, ag::Activation::kRelu, &rng);
  const Matrix item_reps = RandomMatrix(kItems, 16, false, &rng);
  const Matrix item_first = scoring::BuildItemFirst(head, item_reps);
  std::vector<float> u(16, 0.5f), u_first(16), h(16), next(16);
  scoring::UserFirstPartial(head, u.data(), u_first.data());
  float out = 42.f;
  scoring::FastScoreIds(head, item_reps, item_first, u.data(), u_first.data(),
                        nullptr, 0, h.data(), next.data(), &out);
  EXPECT_EQ(out, 42.f);
}

}  // namespace
}  // namespace nmcdr
