// Explicitly vectorized GEMM tile cores (tensor/vector_kernels.h).
//
// This translation unit is compiled at -O3 with -ffp-contract=off
// (src/tensor/CMakeLists.txt): every accumulator chain below is an
// independent per-output-element sequence the compiler may not
// reassociate, the lane ops from tensor/simd.h are lane-wise IEEE
// operations with no horizontal reduction, and contraction of the
// explicit multiply-then-add pairs into FMAs — the one transform that
// could change rounding — is forbidden. The eager kernels in backend.cc
// stay at the default level as the readable reference these cores are
// audited against, bit for bit.

#include "tensor/vector_kernels.h"

#include <algorithm>

#include "tensor/scalar_kernels.h"
#include "tensor/simd.h"

namespace nmcdr {
namespace {

using simd::F32x8;
using simd::F64x4;
using simd::kDoubleLanes;
using simd::kFloatLanes;

/// One register tile of `acc[j] += av * b[p][j]` accumulation, NV lanes of
/// kFloatLanes floats wide. The fixed register count lets the compiler
/// keep every accumulator in a vector register across the whole p loop;
/// the shared `av == 0` skip and ascending-p order are exactly the scalar
/// reference chain (backend.cc MatMulAccumRows). `av_stride` strides the
/// per-p A element (1 for row-major A rows, a.cols() for the TransA walk
/// down an A column).
template <int NV>
inline void AccumRegTile(const float* a0, size_t av_stride, const float* b0,
                         size_t b_stride, int64_t k, float* ctile) {
  F32x8 acc[NV];
  for (int u = 0; u < NV; ++u) acc[u] = simd::LoadF32(ctile + u * kFloatLanes);
  for (int64_t p = 0; p < k; ++p) {
    const float av = a0[static_cast<size_t>(p) * av_stride];
    if (av == 0.f) continue;
    const F32x8 avv = simd::SplatF32(av);
    const float* brow = b0 + static_cast<size_t>(p) * b_stride;
    for (int u = 0; u < NV; ++u) {
      acc[u] = simd::MulAdd(avv, simd::LoadF32(brow + u * kFloatLanes), acc[u]);
    }
  }
  for (int u = 0; u < NV; ++u) simd::StoreF32(ctile + u * kFloatLanes, acc[u]);
}

/// Accumulates one output-row span of `n` columns: widest register tiles
/// first (4 x 8 lanes = 32 columns), then single-register tiles, then a
/// scalar tail with the identical per-element chain.
inline void AccumRowSpan(const float* a0, size_t av_stride, const float* b0,
                         size_t b_stride, int64_t k, int64_t n, float* crow) {
  int64_t j = 0;
  for (; j + 4 * kFloatLanes <= n; j += 4 * kFloatLanes) {
    AccumRegTile<4>(a0, av_stride, b0 + j, b_stride, k, crow + j);
  }
  for (; j + kFloatLanes <= n; j += kFloatLanes) {
    AccumRegTile<1>(a0, av_stride, b0 + j, b_stride, k, crow + j);
  }
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int64_t p = 0; p < k; ++p) {
      const float av = a0[static_cast<size_t>(p) * av_stride];
      if (av == 0.f) continue;
      acc += av * b0[static_cast<size_t>(p) * b_stride + j];
    }
    crow[j] = acc;
  }
}

/// One register tile of the A * B^T double-dot family: NV lanes of
/// kDoubleLanes independent double chains, each ascending p exactly like
/// MatMulTransBRows; the single float rounding happens at the store.
template <int NV>
inline void DotRegTile(const float* arow, const float* bt0, size_t bt_stride,
                       int64_t k, float* ctile) {
  F64x4 acc[NV];
  for (int u = 0; u < NV; ++u) acc[u] = simd::ZeroF64();
  for (int64_t p = 0; p < k; ++p) {
    const F64x4 avv = simd::SplatF64(static_cast<double>(arow[p]));
    const float* btrow = bt0 + static_cast<size_t>(p) * bt_stride;
    for (int u = 0; u < NV; ++u) {
      acc[u] = simd::MulAdd(avv, simd::WidenLoadF64(btrow + u * kDoubleLanes),
                            acc[u]);
    }
  }
  for (int u = 0; u < NV; ++u) {
    simd::NarrowStoreF32(ctile + u * kDoubleLanes, acc[u]);
  }
}

inline void DotRowSpan(const float* arow, const float* bt0, size_t bt_stride,
                       int64_t k, int64_t n, float* crow) {
  int64_t j = 0;
  for (; j + 2 * kDoubleLanes <= n; j += 2 * kDoubleLanes) {
    DotRegTile<2>(arow, bt0 + j, bt_stride, k, crow + j);
  }
  for (; j + kDoubleLanes <= n; j += kDoubleLanes) {
    DotRegTile<1>(arow, bt0 + j, bt_stride, k, crow + j);
  }
  for (; j < n; ++j) {
    double acc = 0.0;
    const float* btcol = bt0 + j;
    for (int64_t p = 0; p < k; ++p) {
      acc += static_cast<double>(arow[p]) *
             static_cast<double>(btcol[static_cast<size_t>(p) * bt_stride]);
    }
    crow[j] = static_cast<float>(acc);
  }
}

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace

void VectorMatMulAccumTile(const Matrix& a, const Matrix& b, Matrix* out,
                           int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  const int64_t k = a.cols(), n = c1 - c0;
  const float* bbase = b.data() + c0;
  for (int64_t i = r0; i < r1; ++i) {
    AccumRowSpan(a.row(static_cast<int>(i)), 1, bbase, b.cols(), k, n,
                 out->row(static_cast<int>(i)) + c0);
  }
}

void VectorMatMulTransATile(const Matrix& a, const Matrix& b, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  // Output row i is column i of A: the per-p A element strides by
  // a.cols(), everything else matches the plain accumulate tile.
  const int64_t k = a.rows(), n = c1 - c0;
  const float* bbase = b.data() + c0;
  for (int64_t i = r0; i < r1; ++i) {
    AccumRowSpan(a.data() + i, static_cast<size_t>(a.cols()), bbase, b.cols(),
                 k, n, out->row(static_cast<int>(i)) + c0);
  }
}

void VectorMatMulTransBTile(const Matrix& a, const Matrix& bt, Matrix* out,
                            int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  const int64_t k = a.cols(), n = c1 - c0;
  const float* btbase = bt.data() + c0;
  for (int64_t i = r0; i < r1; ++i) {
    DotRowSpan(a.row(static_cast<int>(i)), btbase, bt.cols(), k, n,
               out->row(static_cast<int>(i)) + c0);
  }
}

void VectorFusedMatMulTile(const Matrix& a, const Matrix& b,
                           const Matrix* bias, FusedAct act, Matrix* out,
                           int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  VectorMatMulAccumTile(a, b, out, r0, r1, c0, c1);
  const int64_t n = c1 - c0;
  const float* brow = bias != nullptr ? bias->row(0) + c0 : nullptr;
  for (int64_t r = r0; r < r1; ++r) {
    float* crow = out->row(static_cast<int>(r)) + c0;
    if (brow != nullptr) {
      for (int64_t j = 0; j < n; ++j) crow[j] = crow[j] + brow[j];
    }
    if (act != FusedAct::kNone) {
      for (int64_t j = 0; j < n; ++j) crow[j] = FusedActApply(crow[j], act);
    }
  }
}

GemmTileGrid MakeGemmTileGrid(int64_t rows, int64_t cols, int64_t k,
                              int threads) {
  GemmTileGrid g;
  g.rows = rows;
  g.cols = cols;
  if (rows <= 0 || cols <= 0) return g;  // num_tiles() == 0, nothing to run

  // Column tiles keep the active B panel (col_block * k floats) and the C
  // tile row L1/L2-resident; a 96-column output is served by one tile so
  // the common 64-wide hidden layers never pay a ragged tail.
  g.col_block = cols <= 96 ? cols : 64;
  g.col_tiles = CeilDiv(cols, g.col_block);

  // Row tiles: enough tiles that every worker gets ~2 (static chunking
  // balance), but never so thin that a tile undercuts the pool's min-work
  // grain — small shapes then collapse to one tile and run inline.
  const int64_t want_row_tiles =
      std::max<int64_t>(1, int64_t{2} * std::max(1, threads) / g.col_tiles);
  int64_t rb = CeilDiv(rows, want_row_tiles);
  const int64_t tile_cost = std::max<int64_t>(1, g.col_block * k);
  rb = std::max(rb, CeilDiv(kMinWorkPerChunk, tile_cost));
  g.row_block = std::min(rb, rows);
  g.row_tiles = CeilDiv(rows, g.row_block);
  return g;
}

}  // namespace nmcdr
