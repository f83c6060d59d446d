#ifndef PERFBENCH_TOPK_CHECK_H_
#define PERFBENCH_TOPK_CHECK_H_

#include <string>
#include <vector>

#include "serving/model_snapshot.h"
#include "serving/score_engine.h"

namespace perfbench {

/// Score tolerance of the top-K reference check. kFast serving folds the
/// first-layer bias into precomputed item partials and sums the user and
/// item halves in another order than FrozenPredictionHead::Forward, so
/// its scores differ from the reference by first-layer rounding (a few
/// ulp of the hidden pre-activations). The tolerance is far above that
/// and far below any wrong answer the self-test plants.
float ScoreTolerance(float reference_score);

/// Scores the whole target catalog for the request's user with
/// FrozenPredictionHead::Forward over the snapshot's rows, computed apart
/// from the serving code. A user with no identity in the target domain is
/// scored with the home-domain user row (the cold-start path);
/// `*cold_start` reports which path applied.
std::vector<float> ReferenceScores(const nmcdr::ModelSnapshot& snapshot,
                                   const nmcdr::RecRequest& request,
                                   bool* cold_start);

/// Checks one served top-K answer against the reference scores. Returns
/// an empty string when the answer is right, else the kind of fault
/// ("count", "range", "duplicate", "excluded", "order", "score",
/// "missed", "cold_start") followed by details. An answer is right when
/// its items are distinct, in range, not excluded and number k; its
/// scores are non-increasing; each score matches the reference within
/// ScoreTolerance; no item left out beats the k-th returned item by more
/// than that tolerance; and the cold-start flag matches the identity
/// links.
std::string CheckTopK(const nmcdr::ModelSnapshot& snapshot,
                      const nmcdr::RecRequest& request,
                      const nmcdr::Recommendation& answer,
                      const std::vector<float>& reference, bool cold_start);

}  // namespace perfbench

#endif  // PERFBENCH_TOPK_CHECK_H_
