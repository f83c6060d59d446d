#ifndef NMCDR_TENSOR_SCALAR_KERNELS_H_
#define NMCDR_TENSOR_SCALAR_KERNELS_H_

#include <cmath>
#include <cstdint>

#include "tensor/backend.h"  // FusedAct

// Per-element scalar bodies shared by the eager activation kernels
// (backend.cc), the fused eltwise chain (fused_kernels.cc) and the SIMD
// GEMM epilogues (vector_kernels.cc). Every translation unit includes this
// header, so fused and eager execution evaluate the exact same expressions
// against the same libm — results are bit-identical regardless of each
// TU's optimization level (no expression here is eligible for
// reassociation or FMA contraction on the baseline target).

namespace nmcdr {

inline float ReluScalar(float x) { return x > 0.f ? x : 0.f; }

inline float SigmoidScalar(float x) {
  // Numerically stable in both tails.
  if (x >= 0.f) {
    const float z = std::exp(-x);
    return 1.f / (1.f + z);
  }
  const float z = std::exp(x);
  return z / (1.f + z);
}

inline float TanhScalar(float x) { return std::tanh(x); }

inline float SoftplusScalar(float x) {
  // log(1+e^x) = max(x,0) + log1p(e^{-|x|})
  return (x > 0.f ? x : 0.f) + std::log1p(std::exp(-std::fabs(x)));
}

inline float ExpScalar(float x) { return std::exp(x); }

inline float LogScalar(float x) {
  return std::log(x > 1e-12f ? x : 1e-12f);
}

/// The activation of a fused GEMM epilogue, applied to one element.
inline float FusedActApply(float x, FusedAct act) {
  switch (act) {
    case FusedAct::kNone:
      return x;
    case FusedAct::kRelu:
      return ReluScalar(x);
    case FusedAct::kSigmoid:
      return SigmoidScalar(x);
    case FusedAct::kTanh:
      return TanhScalar(x);
  }
  return x;
}

/// Minimum scalar work per ParallelFor chunk (and per GEMM tile). Below
/// roughly this many flops the fork/join handshake costs more than the
/// loop; tiny kernels therefore collapse to a single chunk and run inline
/// on the caller. A scheduling knob only — never affects results.
constexpr int64_t kMinWorkPerChunk = 1 << 15;

/// Transcendental loops get a smaller grain: each element costs ~10-30
/// flops, so chunks amortize the handshake much sooner.
constexpr int64_t kTranscendentalCost = 16;

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_SCALAR_KERNELS_H_
