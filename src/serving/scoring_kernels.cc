#include "serving/scoring_kernels.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "serving/quantized_snapshot.h"
#include "tensor/matrix_ops.h"
#include "tensor/simd.h"

namespace nmcdr {
namespace scoring {
namespace {

// Every core below is built from lane-wise operations (tensor/simd.h) and
// keeps the per-item float operation order of the scalar reference loops
// in tests/scoring_kernels_test.cc, so its scores are bit-identical to
// them; the TU compiles with -ffp-contract=off, so no multiply-add pair
// is contracted into an FMA.
using simd::F32x4;
using simd::F32x8;
constexpr int kLanes = simd::kFloatLanes;

/// Activates h[0..n) in place; the dispatch happens once per call, not per
/// element. ReLU is the select `x > 0 ? x : 0` in lanes (NaN and -0 give
/// +0); sigmoid and tanh stay per-element libm calls.
void ActivateInPlace(float* h, int n, ag::Activation act) {
  switch (act) {
    case ag::Activation::kNone:
      return;
    case ag::Activation::kRelu: {
      int j = 0;
      for (; j + kLanes <= n; j += kLanes) {
        simd::StoreF32(h + j, simd::Relu(simd::LoadF32(h + j)));
      }
      for (; j < n; ++j) h[j] = h[j] > 0.f ? h[j] : 0.f;
      return;
    }
    case ag::Activation::kSigmoid:
      for (int j = 0; j < n; ++j) h[j] = 1.f / (1.f + std::exp(-h[j]));
      return;
    case ag::Activation::kTanh:
      for (int j = 0; j < n; ++j) h[j] = std::tanh(h[j]);
      return;
  }
}

/// bias + ((a0 + a1) + (a2 + a3)) with a_k = Σ_m h[4m+k] w[4m+k] summed in
/// order of m: lane k of the 4-lane accumulator is exactly a_k, and the
/// scalar tail (width % 4 trailing elements) adds into a0.
float DotToOne(const float* h, const float* w, int width, float bias) {
  F32x4 acc = simd::ZeroF32x4();
  int r = 0;
  for (; r + 4 <= width; r += 4) {
    acc = simd::Add(acc, simd::Mul(simd::LoadF32x4(h + r),
                                   simd::LoadF32x4(w + r)));
  }
  float a[4];
  simd::StoreF32x4(a, acc);
  for (; r < width; ++r) a[0] += h[r] * w[r];
  return bias + ((a[0] + a[1]) + (a[2] + a[3]));
}

/// next[c] = bias[c] + Σ_r h[r] w[r][c], summed in order of r: lanes run
/// across the output columns, each column its own sequential chain.
void DenseLayer(const float* h, int width, const float* w, const float* bias,
                int out_width, float* next) {
  std::copy(bias, bias + out_width, next);
  for (int r = 0; r < width; ++r) {
    const float* wrow = w + static_cast<size_t>(r) * out_width;
    const F32x8 hr = simd::SplatF32(h[r]);
    int c = 0;
    for (; c + kLanes <= out_width; c += kLanes) {
      simd::StoreF32(next + c,
                     simd::Add(simd::LoadF32(next + c),
                               simd::Mul(hr, simd::LoadF32(wrow + c))));
    }
    for (; c < out_width; ++c) next[c] += h[r] * wrow[c];
  }
}

/// The MLP layers past the first: `h` holds the first layer's
/// pre-activation (bias included) on entry, `next` is scratch of the same
/// capacity. Returns the last layer's first output (the first layer's when
/// the head has no further layer).
float MlpTail(const FrozenPredictionHead& head, float* h, float* next) {
  int width = head.b0.cols();
  for (size_t l = 0; l < head.w.size(); ++l) {
    const int out_width = head.w[l].cols();
    ActivateInPlace(h, width, head.hidden_act);
    if (out_width == 1) {
      next[0] = DotToOne(h, head.w[l].data(), width, head.b[l].data()[0]);
    } else {
      DenseLayer(h, width, head.w[l].data(), head.b[l].data(), out_width,
                 next);
    }
    std::swap(h, next);
    width = out_width;
  }
  return h[0];
}

/// gmf_bias + g0 + g1, with g0 / g1 the in-order sums of the even / odd
/// products (u[j] * v[j]) * gmf_w[j] (an odd dim's last product adds into
/// g0). The products are computed in lanes; the two sums stay sequential
/// (a lane block holds an even number of products, so parity is kept).
float GmfTerm(const float* u, const float* v, const float* gmf_w, int dim,
              float gmf_bias) {
  float g0 = 0.f, g1 = 0.f;
  int j = 0;
  for (; j + kLanes <= dim; j += kLanes) {
    float q[kLanes];
    simd::StoreF32(q, simd::Mul(simd::Mul(simd::LoadF32(u + j),
                                          simd::LoadF32(v + j)),
                                simd::LoadF32(gmf_w + j)));
    for (int k = 0; k < kLanes; k += 2) {
      g0 += q[k];
      g1 += q[k + 1];
    }
  }
  for (; j + 2 <= dim; j += 2) {
    g0 += (u[j] * v[j]) * gmf_w[j];
    g1 += (u[j + 1] * v[j + 1]) * gmf_w[j + 1];
  }
  if (j < dim) g0 += (u[j] * v[j]) * gmf_w[j];
  return gmf_bias + g0 + g1;
}

/// kFast candidate: the first layer is the user partial plus the item's
/// precomputed partial (b0 folded in); gmf is the float weighted product.
struct FastCandidate {
  const FrozenPredictionHead& head;
  const Matrix& item_reps;
  const Matrix& item_first;
  const float* u;
  const float* u_first;
  const float* p = nullptr;
  const float* v = nullptr;

  void Bind(int item) {
    p = item_first.row(item);
    v = item_reps.row(item);
  }
  F32x8 FirstLanes(int j) const {
    return simd::Add(simd::LoadF32(u_first + j), simd::LoadF32(p + j));
  }
  float First(int j) const { return u_first[j] + p[j]; }
  float Gmf() const {
    return GmfTerm(u, v, head.gmf_w.data(), head.dim(),
                   head.gmf_b.data()[0]);
  }
};

/// kQuantized candidate: the first layer dequantizes the item partial's
/// int8 codes on the fly; gmf is a dequantization-free int32 code dot
/// corrected for both zero points (scoring_kernels.h).
struct QuantizedCandidate {
  const FrozenPredictionHead& head;
  const QuantizedRows& item_first;
  const QuantizedRows& item_gmf;
  const float* u_first;
  const QuantizedUser& user;
  int item = 0;
  const int8_t* p = nullptr;
  // The row's scale, and its zero point folded into a float offset once
  // per candidate: per element only a subtract and a multiply remain.
  float ps = 0.f;
  float pz = 0.f;

  void Bind(int row) {
    item = row;
    p = item_first.row(row);
    ps = item_first.scale[row];
    pz = static_cast<float>(item_first.zero[row]);
  }
  F32x8 FirstLanes(int j) const {
    return simd::Add(
        simd::LoadF32(u_first + j),
        simd::Mul(simd::SplatF32(ps),
                  simd::Sub(simd::WidenLoadI8(p + j), simd::SplatF32(pz))));
  }
  float First(int j) const {
    return u_first[j] + ps * (static_cast<float>(p[j]) - pz);
  }
  float Gmf() const {
    // Exact integer code dot (|code product| <= 2^14, so even a 2^16 dim
    // cannot overflow int32; integer sums are exact, so -O3 may vectorize
    // this loop in any order), then both zero-point corrections in int64
    // and a single scale multiply.
    const int dim = head.dim();
    const int8_t* qv = item_gmf.row(item);
    int32_t dot = 0;
    for (int k = 0; k < dim; ++k) {
      dot += static_cast<int32_t>(user.q[k]) * qv[k];
    }
    const int32_t zu = user.zero;
    const int32_t zv = item_gmf.zero[item];
    const int64_t bracket = static_cast<int64_t>(dot) -
                            static_cast<int64_t>(zv) * user.qsum -
                            static_cast<int64_t>(zu) * item_gmf.qsum[item] +
                            static_cast<int64_t>(dim) * zu * zv;
    const float g =
        user.scale * item_gmf.scale[item] * static_cast<float>(bracket);
    return head.gmf_b.data()[0] + g;
  }
};

/// The per-candidate loop shared by kFast and kQuantized: out[i] = MLP
/// output + gmf term of candidate ids[i].
///
/// The model's own head shape — one ReLU (or linear) hidden layer of a
/// multiple of 8 units into one output — runs fused in registers: each
/// 8-lane block of the first layer is activated, multiplied by its weights
/// and added into the 4-lane accumulator as two 4-lane halves (groups of
/// four in order, exactly DotToOne's sequence). Every other head writes
/// the first layer into `h_buf` and runs MlpTail.
template <class Candidate>
void ScoreLoop(const FrozenPredictionHead& head, Candidate cand,
               const int* ids, int n, float* h_buf, float* next_buf,
               float* out) {
  const int hidden = head.b0.cols();
  const ag::Activation act = head.hidden_act;
  const bool fused = head.w.size() == 1 && head.w[0].cols() == 1 &&
                     hidden % kLanes == 0 &&
                     (act == ag::Activation::kRelu ||
                      act == ag::Activation::kNone);
  if (fused) {
    const float* w = head.w[0].data();
    const float bias = head.b[0].data()[0];
    const bool relu = act == ag::Activation::kRelu;
    for (int i = 0; i < n; ++i) {
      cand.Bind(ids[i]);
      F32x4 acc = simd::ZeroF32x4();
      for (int j = 0; j < hidden; j += kLanes) {
        F32x8 x = cand.FirstLanes(j);
        if (relu) x = simd::Relu(x);
        const F32x8 prod = simd::Mul(x, simd::LoadF32(w + j));
        acc = simd::Add(acc, simd::LowHalf(prod));
        acc = simd::Add(acc, simd::HighHalf(prod));
      }
      float a[4];
      simd::StoreF32x4(a, acc);
      out[i] = (bias + ((a[0] + a[1]) + (a[2] + a[3]))) + cand.Gmf();
    }
    return;
  }
  for (int i = 0; i < n; ++i) {
    cand.Bind(ids[i]);
    int j = 0;
    for (; j + kLanes <= hidden; j += kLanes) {
      simd::StoreF32(h_buf + j, cand.FirstLanes(j));
    }
    for (; j < hidden; ++j) h_buf[j] = cand.First(j);
    out[i] = MlpTail(head, h_buf, next_buf) + cand.Gmf();
  }
}

}  // namespace

Matrix BuildItemFirst(const FrozenPredictionHead& head,
                      const Matrix& item_reps) {
  return AddRowBroadcast(MatMul(item_reps, head.w0_item), head.b0);
}

int MaxHeadWidth(const FrozenPredictionHead& head) {
  int max_width = head.b0.cols();
  for (const Matrix& w : head.w) max_width = std::max(max_width, w.cols());
  return max_width;
}

void UserFirstPartial(const FrozenPredictionHead& head, const float* u,
                      float* u_first) {
  const int dim = head.dim();
  const int hidden = head.b0.cols();
  std::fill(u_first, u_first + hidden, 0.f);
  for (int k = 0; k < dim; ++k) {
    const float uk = u[k];
    if (uk == 0.f) continue;
    const float* wrow = head.w0_user.row(k);
    for (int j = 0; j < hidden; ++j) u_first[j] += uk * wrow[j];
  }
}

void FastScoreIds(const FrozenPredictionHead& head, const Matrix& item_reps,
                  const Matrix& item_first, const float* u,
                  const float* u_first, const int* ids, int n, float* h_buf,
                  float* next_buf, float* out) {
  // Fused serving path: no Matrix temporaries, the caller-owned scratch
  // pair reused across candidates (and across calls — this function never
  // touches the heap). Per pair only the first-layer add (precomputed
  // item partials), the activation, and the tiny tail layers remain, so
  // the cost is dominated by ~3 * hidden flops instead of the trainer's
  // full 2 * dim * hidden first-layer GEMM plus tape bookkeeping.
  ScoreLoop(head, FastCandidate{head, item_reps, item_first, u, u_first},
            ids, n, h_buf, next_buf, out);
}

QuantizedUser QuantizeUserGmf(const FrozenPredictionHead& head, const float* u,
                              float* uw_buf, int8_t* q_buf) {
  const int dim = head.dim();
  const float* gmf_w = head.gmf_w.data();  // [dim, 1], contiguous
  for (int j = 0; j < dim; ++j) uw_buf[j] = u[j] * gmf_w[j];
  QuantizedUser user;
  user.q = q_buf;
  QuantizeVectorInto(uw_buf, dim, q_buf, &user.scale, &user.zero, &user.qsum);
  return user;
}

void QuantizedScoreIds(const FrozenPredictionHead& head,
                       const QuantizedRows& item_first,
                       const QuantizedRows& item_gmf, const float* u_first,
                       const QuantizedUser& user, const int* ids, int n,
                       float* h_buf, float* next_buf, float* out) {
  // Same loop as FastScoreIds; only the two item-table reads change: 1
  // byte per element instead of 4, dequantized on the fly (first layer)
  // or never (gmf dot).
  ScoreLoop(head,
            QuantizedCandidate{head, item_first, item_gmf, u_first, user},
            ids, n, h_buf, next_buf, out);
}

void ExactScoreIds(const FrozenPredictionHead& head, const Matrix& item_reps,
                   const float* u, const int* ids, int n, int item_block,
                   float* out) {
  const int dim = head.dim();
  const int hidden = head.b0.cols();

  // User-side first-layer partial, shared by every candidate row.
  Matrix u_row(1, dim);
  std::copy(u, u + dim, u_row.data());
  const Matrix u_first = MatMul(u_row, head.w0_user);

  std::vector<int> block_ids;
  for (int begin = 0; begin < n; begin += item_block) {
    const int count = std::min(item_block, n - begin);
    block_ids.assign(ids + begin, ids + begin + count);
    const Matrix item_rows = GatherRows(item_reps, block_ids);

    // First MLP layer over the block: every row starts from the user
    // partial; the item half is then accumulated on top via the same
    // in-order GEMM as the trainer, keeping kExact bit-equal.
    Matrix h0(count, hidden);
    for (int i = 0; i < count; ++i) {
      std::copy(u_first.data(), u_first.data() + hidden, h0.row(i));
    }
    MatMulAccumInto(item_rows, head.w0_item, &h0);

    // Weighted product term, bit-equal to the trainer's Hadamard + GEMM:
    // same products, same fused-add order.
    Matrix gmf_dot(count, 1);
    for (int i = 0; i < count; ++i) {
      const float* v = item_rows.row(i);
      float acc = 0.f;
      for (int j = 0; j < dim; ++j) {
        acc += (u[j] * v[j]) * head.gmf_w.At(j, 0);
      }
      gmf_dot.At(i, 0) = acc;
    }

    const Matrix logits = head.ForwardFromHidden(h0, gmf_dot);
    for (int i = 0; i < count; ++i) out[begin + i] = logits.At(i, 0);
  }
}

}  // namespace scoring
}  // namespace nmcdr
