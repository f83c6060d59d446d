// Fused elementwise-chain range core for the graph-program replay path.
//
// This translation unit is compiled at a higher optimization level than the
// rest of the tensor library (see src/tensor/CMakeLists.txt): every output
// element's IEEE operation sequence is fixed — an independent per-element
// chain, no reduction the compiler could reassociate, no FMA on the
// baseline target — which makes aggressive loop optimization
// value-preserving. The eager kernels in backend.cc stay at the default
// level: they are the readable reference implementation the replay path is
// audited against, bit for bit.

#include "tensor/fused_kernels.h"

#include "tensor/backend.h"
#include "tensor/matrix.h"
#include "tensor/scalar_kernels.h"

namespace nmcdr {
namespace {

inline float EltwiseApplySteps(float cur, size_t i, const EltwiseStep* steps,
                               int num_steps) {
  for (int s = 0; s < num_steps; ++s) {
    const EltwiseStep& st = steps[s];
    switch (st.op) {
      case EltwiseOp::kAddMat:
        cur = cur + st.side[i];
        break;
      case EltwiseOp::kSubMat:
        cur = st.rhs ? st.side[i] - cur : cur - st.side[i];
        break;
      case EltwiseOp::kMulMat:
        cur = cur * st.side[i];
        break;
      case EltwiseOp::kScale:
        cur = st.scalar * cur;
        break;
      case EltwiseOp::kAddScalar:
        cur = cur + st.scalar;
        break;
      case EltwiseOp::kOneMinus:
        cur = 1.f - cur;
        break;
      case EltwiseOp::kSoftplus:
        cur = SoftplusScalar(cur);
        break;
      case EltwiseOp::kRelu:
        cur = ReluScalar(cur);
        break;
      case EltwiseOp::kSigmoid:
        cur = SigmoidScalar(cur);
        break;
      case EltwiseOp::kTanh:
        cur = TanhScalar(cur);
        break;
      case EltwiseOp::kExp:
        cur = ExpScalar(cur);
        break;
    }
  }
  return cur;
}

}  // namespace

void FusedEltwiseRange(const Matrix& a, const EltwiseStep* steps,
                       int num_steps, Matrix* out, int64_t i0, int64_t i1) {
  const float* in = a.data();
  float* o = out->data();
  for (int64_t i = i0; i < i1; ++i) {
    o[i] = EltwiseApplySteps(in[i], static_cast<size_t>(i), steps, num_steps);
  }
}

int64_t EltwiseChainCost(const EltwiseStep* steps, int num_steps) {
  int64_t cost = 1;
  for (int s = 0; s < num_steps; ++s) {
    switch (steps[s].op) {
      case EltwiseOp::kSoftplus:
      case EltwiseOp::kSigmoid:
      case EltwiseOp::kTanh:
      case EltwiseOp::kExp:
        cost += kTranscendentalCost;
        break;
      default:
        cost += 1;
        break;
    }
  }
  return cost;
}

}  // namespace nmcdr
