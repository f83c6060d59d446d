#ifndef NMCDR_SERVING_SCORING_KERNELS_H_
#define NMCDR_SERVING_SCORING_KERNELS_H_

#include <cstdint>

#include "core/prediction.h"
#include "tensor/matrix.h"
#include "util/thread_annotations.h"

namespace nmcdr {

struct QuantizedRows;  // serving/quantized_snapshot.h

namespace scoring {

/// Autograd-free scoring inner loops shared by ScoreEngine (monolithic
/// snapshot) and cluster::ShardedSnapshot (partitioned tables). Both
/// callers evaluate the SAME code over the SAME per-item rows, which is
/// what makes sharded top-K bit-identical to single-snapshot top-K: every
/// kernel here is row-independent — the score of item row i never depends
/// on which other rows share the block or the shard. The kFast and
/// kQuantized cores run in SIMD lanes (tensor/simd.h) but keep the scalar
/// per-item float operation order, so their scores do not depend on the
/// ISA the TU was built for (DESIGN.md §6).

/// kFast precompute: item-side first-layer partials with the bias folded
/// in, item_reps * w0_item + b0, [num_items, H]. Computed once per frozen
/// table (per domain, or per shard slice of a domain — identical rows
/// either way, MatMul is row-independent).
Matrix BuildItemFirst(const FrozenPredictionHead& head,
                      const Matrix& item_reps) NMCDR_COLD;

/// Widest layer FastScoreIds flows through: the size its two scratch
/// buffers (`h_buf` / `next_buf`) must have. Scratch Prepare() helpers
/// call this once per geometry change.
int MaxHeadWidth(const FrozenPredictionHead& head) NMCDR_COLD;

/// kFast per-request precompute: the user-side first-layer partial
/// u * w0_user into u_first[0..H), without Matrix temporaries.
void UserFirstPartial(const FrozenPredictionHead& head, const float* u,
                      float* u_first) NMCDR_HOT;

/// kFast inner loop: fused head evaluation from the precomputed item
/// partials, no heap allocation at all — `h_buf` and `next_buf` are
/// caller-owned scratch of MaxHeadWidth(head) floats each (distinct,
/// non-aliasing). `ids[0..n)` index rows of `item_reps` / `item_first`
/// (local ids when scoring a shard slice); scores land in out[0..n).
/// Scores differ from the exact path only by first-layer summation
/// rounding.
void FastScoreIds(const FrozenPredictionHead& head, const Matrix& item_reps,
                  const Matrix& item_first, const float* u,
                  const float* u_first, const int* ids, int n, float* h_buf,
                  float* next_buf, float* out) NMCDR_HOT;

/// The user-side operand of the quantized gmf dot, quantized once per
/// request into caller-owned storage (QuantizeUserGmf).
struct QuantizedUser {
  const int8_t* q = nullptr;  // [dim] codes
  float scale = 1.f;
  int32_t zero = 0;
  int32_t qsum = 0;
};

/// kQuantized per-request precompute: quantizes the user-side gmf operand
/// u[j] * gmf_w[j] (folding the learned per-dimension weight into the
/// user half, so the per-candidate dot is a pure int8 x int8 dot).
/// `uw_buf` and `q_buf` are caller-owned scratch of dim floats / codes;
/// the returned view aliases `q_buf`. No allocation.
QuantizedUser QuantizeUserGmf(const FrozenPredictionHead& head, const float* u,
                              float* uw_buf, int8_t* q_buf) NMCDR_HOT;

/// kQuantized inner loop: like FastScoreIds, but the two per-candidate
/// item tables are int8 (serving/quantized_snapshot.h). The first MLP
/// layer fuses the dequantization of the item partial into the add; the
/// gmf term is a dequantization-free int32 code dot corrected for both
/// zero points:
///
///   gmf ≈ s_u s_v [Σ q_u q_v − z_v Σ q_u − z_u Σ q_v + dim z_u z_v]
///
/// with the bracket exact in integer arithmetic — the float sequence per
/// candidate is fixed, so scores are deterministic and row-independent
/// (sharded == monolithic, bit for bit). Scores differ from kFast only by
/// the quantization error of the item tables and the user gmf operand.
void QuantizedScoreIds(const FrozenPredictionHead& head,
                       const QuantizedRows& item_first,
                       const QuantizedRows& item_gmf, const float* u_first,
                       const QuantizedUser& user, const int* ids, int n,
                       float* h_buf, float* next_buf, float* out) NMCDR_HOT;

/// kExact path: replays the trainer's kernel sequence over blocks of
/// `item_block` candidates — user partial first, item half accumulated on
/// top via the same in-order GEMM — so scores equal RecModel::Score to the
/// last bit. `ids` index rows of `item_reps`.
/// The Matrix temporaries this path materializes per block are the price
/// of bit-replaying the trainer (documented hot-alloc exemption: the
/// analyzer deliberately does not flag Matrix construction — see
/// DESIGN.md's static hot-path cost model).
void ExactScoreIds(const FrozenPredictionHead& head, const Matrix& item_reps,
                   const float* u, const int* ids, int n, int item_block,
                   float* out) NMCDR_HOT;

}  // namespace scoring
}  // namespace nmcdr

#endif  // NMCDR_SERVING_SCORING_KERNELS_H_
