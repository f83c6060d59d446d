#include "topk_check.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

using nmcdr::Matrix;
using nmcdr::ModelSnapshot;
using nmcdr::Recommendation;
using nmcdr::RecRequest;

float ScoreTolerance(float reference_score) {
  return 1e-4f * (1.f + std::fabs(reference_score));
}

std::vector<float> ReferenceScores(const ModelSnapshot& snapshot,
                                   const RecRequest& request,
                                   bool* cold_start) {
  const nmcdr::FrozenDomainState& target =
      snapshot.domain(request.target_domain).frozen;
  const int local =
      snapshot.ResolveUser(request.user_domain, request.user,
                           request.target_domain);
  *cold_start = local < 0;
  const float* user_row =
      local >= 0
          ? target.user_reps.row(local)
          : snapshot.domain(request.user_domain).frozen.user_reps.row(
                request.user);
  const int n = target.num_items();
  const int dim = target.dim();
  Matrix users(n, dim);
  for (int i = 0; i < n; ++i) {
    std::memcpy(users.row(i), user_row, sizeof(float) * dim);
  }
  const Matrix logits = target.head.Forward(users, target.item_reps);
  std::vector<float> scores(n);
  for (int i = 0; i < n; ++i) scores[i] = logits.At(i, 0);
  return scores;
}

std::string CheckTopK(const ModelSnapshot& snapshot, const RecRequest& request,
                      const Recommendation& answer,
                      const std::vector<float>& reference, bool cold_start) {
  const int n = snapshot.domain(request.target_domain).num_items();
  std::unordered_set<int> excluded(request.exclude.begin(),
                                   request.exclude.end());
  const int eligible = n - static_cast<int>(excluded.size());
  const size_t want = static_cast<size_t>(std::min(request.k, eligible));
  if (answer.items.size() != want || answer.scores.size() != want) {
    return "count: " + std::to_string(answer.items.size()) + " items, " +
           std::to_string(answer.scores.size()) + " scores, want " +
           std::to_string(want);
  }
  if (answer.cold_start != cold_start) {
    return std::string("cold_start: flag ") +
           (answer.cold_start ? "set" : "clear") + ", links say " +
           (cold_start ? "cold" : "warm");
  }
  std::unordered_set<int> seen;
  for (size_t i = 0; i < want; ++i) {
    const int item = answer.items[i];
    if (item < 0 || item >= n) {
      return "range: item " + std::to_string(item);
    }
    if (!seen.insert(item).second) {
      return "duplicate: item " + std::to_string(item);
    }
    if (excluded.count(item) != 0) {
      return "excluded: item " + std::to_string(item);
    }
    if (i > 0 && answer.scores[i] > answer.scores[i - 1]) {
      return "order: rank " + std::to_string(i) + " scores above rank " +
             std::to_string(i - 1);
    }
    const float ref = reference[item];
    if (std::fabs(answer.scores[i] - ref) > ScoreTolerance(ref)) {
      return "score: item " + std::to_string(item) + " served " +
             std::to_string(answer.scores[i]) + ", reference " +
             std::to_string(ref);
    }
  }
  if (want == 0) return "";
  const float kth = reference[answer.items[want - 1]];
  for (int item = 0; item < n; ++item) {
    if (seen.count(item) != 0 || excluded.count(item) != 0) continue;
    if (reference[item] > kth + ScoreTolerance(kth)) {
      return "missed: item " + std::to_string(item) + " scores " +
             std::to_string(reference[item]) + " above the k-th " +
             std::to_string(kth);
    }
  }
  return "";
}

}  // namespace perfbench
