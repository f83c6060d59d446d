#ifndef NMCDR_TENSOR_FUSED_KERNELS_H_
#define NMCDR_TENSOR_FUSED_KERNELS_H_

#include <cstdint>

#include "tensor/backend.h"  // EltwiseStep
#include "tensor/matrix.h"

// Range core for the graph-program replay path's fused elementwise chains.
// Declared here so both backends (backend.cc) can shard it; defined in
// fused_kernels.cc, a separate translation unit compiled at a higher
// optimization level — see the note in src/tensor/CMakeLists.txt for why
// that is bitwise-safe. (The fused GEMM epilogue lives with the SIMD GEMM
// tiles in vector_kernels.h.)
//
// The core is bit-exact with the eager op sequence it replaces: per
// output element it performs the same IEEE operations in the same order;
// only the iteration of independent elements differs.

namespace nmcdr {

/// Elements [i0, i1): out[i] = steps applied to a[i] in order.
void FusedEltwiseRange(const Matrix& a, const EltwiseStep* steps,
                       int num_steps, Matrix* out, int64_t i0, int64_t i1);

/// Per-element cost estimate for an eltwise chain (grain selection only —
/// never affects results).
int64_t EltwiseChainCost(const EltwiseStep* steps, int num_steps);

}  // namespace nmcdr

#endif  // NMCDR_TENSOR_FUSED_KERNELS_H_
