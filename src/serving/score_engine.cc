#include "serving/score_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "serving/scoring_kernels.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace {

/// Mirrors the engine's own relaxed-atomic counters (the `counters()` API,
/// always exact) into the global registry so scoring traffic shows up in
/// --metrics-out dumps. Gated per call; the registry lookups resolve once.
/// Safe from pool workers: statics are init-once, counters are sharded.
void MirrorRequestMetric(bool cold_start) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& requests =
      obs::MetricsRegistry::Global().GetCounter("scoring.requests");
  static obs::Counter& cold =
      obs::MetricsRegistry::Global().GetCounter("scoring.cold_start_requests");
  requests.Add(1);
  if (cold_start) cold.Add(1);
}

void MirrorPairsMetric(int64_t n) {
  if (!obs::MetricsEnabled()) return;
  static obs::Counter& pairs =
      obs::MetricsRegistry::Global().GetCounter("scoring.pairs_scored");
  pairs.Add(n);
}

/// (score, item) entry ordered so a worst-on-top binary heap's front() is
/// the WORST kept candidate (RanksBefore acts as the strict weak "less").
/// Used with std::push_heap / std::pop_heap over ScoreScratch::heap —
/// the exact element set a std::priority_queue with this comparator would
/// keep, without its allocating container.
struct HeapWorstOnTop {
  bool operator()(const std::pair<float, int>& a,
                  const std::pair<float, int>& b) const {
    return RanksBefore(a.first, a.second, b.first, b.second);
  }
};

}  // namespace

void ScoreScratch::Prepare(int num_items, int item_block, int head_width,
                           int dim) {
  // Growth-only: capacities converge to the engine's geometry and every
  // later call is a no-op, which is what lets the hot core run
  // allocation-free at steady state. `excluded` grows zero-filled, and
  // the core restores the zeros it sets, so the all-zero invariant holds.
  if (static_cast<int>(excluded.size()) < num_items) {
    excluded.resize(num_items, 0);
  }
  if (static_cast<int>(scores.size()) < item_block) scores.resize(item_block);
  if (static_cast<int>(u_first.size()) < head_width) {
    u_first.resize(head_width);
    h.resize(head_width);
    next.resize(head_width);
  }
  if (static_cast<int>(uw.size()) < dim) {
    uw.resize(dim);
    qu.resize(dim);
  }
}

ScoreEngine::ScoreEngine(const ModelSnapshot* snapshot, Options options)
    : snapshot_(snapshot), options_(options) {
  NMCDR_CHECK(snapshot != nullptr);
  NMCDR_CHECK_GT(snapshot->num_domains(), 0);
  NMCDR_CHECK_GT(options_.item_block, 0);
  const int dim = snapshot->domain(0).frozen.dim();
  for (int d = 0; d < snapshot->num_domains(); ++d) {
    NMCDR_CHECK_EQ(snapshot->domain(d).frozen.dim(), dim);
  }
  if (options_.mode == Mode::kFast) {
    // Item-side first-layer partials (with the bias folded in), computed
    // once per snapshot: at request time only the user partial, the
    // activation, and the tiny tail layers remain per pair.
    item_first_.reserve(snapshot->num_domains());
    for (int d = 0; d < snapshot->num_domains(); ++d) {
      const FrozenDomainState& frozen = snapshot->domain(d).frozen;
      item_first_.push_back(
          scoring::BuildItemFirst(frozen.head, frozen.item_reps));
    }
  } else if (options_.mode == Mode::kQuantized) {
    // Quantize-at-freeze: the float item tables exist only transiently
    // inside Quantize — the engine retains 1-byte codes plus per-row
    // (scale, zero, qsum).
    quant_ = QuantizedSnapshot::Quantize(*snapshot);
  }
}

ScoreEngine::ScoreEngine(const ModelSnapshot* snapshot, Options options,
                         QuantizedSnapshot quantized)
    : snapshot_(snapshot), options_(options) {
  NMCDR_CHECK(snapshot != nullptr);
  NMCDR_CHECK_GT(snapshot->num_domains(), 0);
  NMCDR_CHECK_GT(options_.item_block, 0);
  NMCDR_CHECK(options_.mode == Mode::kQuantized);
  std::string why;
  if (!quantized.Matches(*snapshot, &why)) {
    LOG_ERROR << "ScoreEngine: quantized tables do not fit the snapshot: "
              << why;
    NMCDR_CHECK(quantized.Matches(*snapshot, &why));
  }
  quant_ = std::move(quantized);
}

void ScoreEngine::ValidateRequest(const RecRequest& request) const {
  NMCDR_CHECK_GE(request.target_domain, 0);
  NMCDR_CHECK_LT(request.target_domain, snapshot_->num_domains());
  NMCDR_CHECK_GE(request.user_domain, 0);
  NMCDR_CHECK_LT(request.user_domain, snapshot_->num_domains());
  NMCDR_CHECK_GE(request.user, 0);
  NMCDR_CHECK_LT(request.user,
                 snapshot_->domain(request.user_domain).num_users());
  NMCDR_CHECK_GT(request.k, 0);
  const int num_items =
      snapshot_->domain(request.target_domain).frozen.num_items();
  for (int item : request.exclude) {
    NMCDR_CHECK_GE(item, 0);
    NMCDR_CHECK_LT(item, num_items);
  }
}

ScoreEngine::ResolvedUser ScoreEngine::Resolve(int target_domain,
                                               int user_domain,
                                               int user) const {
  NMCDR_DCHECK_GE(target_domain, 0);
  NMCDR_DCHECK_LT(target_domain, snapshot_->num_domains());
  const int resolved = snapshot_->ResolveUser(user_domain, user, target_domain);
  ResolvedUser out;
  if (resolved >= 0) {
    out.row = snapshot_->domain(target_domain).frozen.user_reps.row(resolved);
  } else {
    // Cross-domain cold start: the user has no identity link into the
    // target domain, so rank with the home-domain representation (the
    // matching modules trained both domains into one aligned space).
    out.row = snapshot_->domain(user_domain).frozen.user_reps.row(user);
    out.cold_start = true;
  }
  return out;
}

void ScoreEngine::ScoreIds(int target_domain, const float* u, const int* ids,
                           int n, ScoreScratch* scratch, float* out) const {
  const FrozenDomainState& frozen = snapshot_->domain(target_domain).frozen;
  const FrozenPredictionHead& head = frozen.head;

  if (options_.mode == Mode::kFast) {
    scoring::UserFirstPartial(head, u, scratch->u_first.data());
    scoring::FastScoreIds(head, frozen.item_reps, item_first_[target_domain],
                          u, scratch->u_first.data(), ids, n,
                          scratch->h.data(), scratch->next.data(), out);
  } else if (options_.mode == Mode::kQuantized) {
    scoring::UserFirstPartial(head, u, scratch->u_first.data());
    const scoring::QuantizedUser user = scoring::QuantizeUserGmf(
        head, u, scratch->uw.data(), scratch->qu.data());
    const QuantizedDomain& qd = quant_.domain(target_domain);
    scoring::QuantizedScoreIds(head, qd.item_first, qd.item_gmf,
                               scratch->u_first.data(), user, ids, n,
                               scratch->h.data(), scratch->next.data(), out);
  } else {
    scoring::ExactScoreIds(head, frozen.item_reps, u, ids, n,
                           options_.item_block, out);
  }
  pairs_scored_.fetch_add(n, std::memory_order_relaxed);
  MirrorPairsMetric(n);
}

std::vector<float> ScoreEngine::ScoreCandidates(
    int target_domain, int user_domain, int user,
    const std::vector<int>& candidates, bool* cold_start) const {
  NMCDR_CHECK_GE(target_domain, 0);
  NMCDR_CHECK_LT(target_domain, snapshot_->num_domains());
  NMCDR_CHECK_GE(user_domain, 0);
  NMCDR_CHECK_LT(user_domain, snapshot_->num_domains());
  NMCDR_CHECK_GE(user, 0);
  NMCDR_CHECK_LT(user, snapshot_->domain(user_domain).num_users());
  const ResolvedUser resolved = Resolve(target_domain, user_domain, user);
  if (cold_start != nullptr) *cold_start = resolved.cold_start;
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (resolved.cold_start) {
    cold_start_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  MirrorRequestMetric(resolved.cold_start);
  const FrozenPredictionHead& head =
      snapshot_->domain(target_domain).frozen.head;
  ScoreScratch scratch;
  scratch.Prepare(/*num_items=*/0, options_.item_block,
                  scoring::MaxHeadWidth(head), head.dim());
  std::vector<float> scores(candidates.size());
  if (!candidates.empty()) {
    ScoreIds(target_domain, resolved.row, candidates.data(),
             static_cast<int>(candidates.size()), &scratch, scores.data());
  }
  return scores;
}

std::vector<float> ScoreEngine::ScoreCandidates(
    int domain, int user, const std::vector<int>& candidates) const {
  return ScoreCandidates(domain, domain, user, candidates);
}

Recommendation ScoreEngine::TopK(const RecRequest& request) const {
  ValidateRequest(request);
  ScoreScratch scratch;
  return TopKWithScratch(request, &scratch);
}

Recommendation ScoreEngine::TopKWithScratch(const RecRequest& request,
                                            ScoreScratch* scratch) const {
  NMCDR_DCHECK_GT(request.k, 0);
  const ResolvedUser resolved =
      Resolve(request.target_domain, request.user_domain, request.user);
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (resolved.cold_start) {
    cold_start_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  MirrorRequestMetric(resolved.cold_start);

  const FrozenDomainState& frozen =
      snapshot_->domain(request.target_domain).frozen;
  const int num_items = frozen.num_items();
  scratch->Prepare(num_items, options_.item_block,
                   scoring::MaxHeadWidth(frozen.head), frozen.head.dim());

  // Sparse exclusion bitmap: `excluded` is all-zero between calls, so
  // marking costs O(|exclude|) and the restore loop below undoes exactly
  // these writes.
  std::vector<uint8_t>& excluded = scratch->excluded;
  for (int item : request.exclude) {
    NMCDR_DCHECK_GE(item, 0);
    NMCDR_DCHECK_LT(item, num_items);
    excluded[item] = 1;
  }
  std::vector<int>& candidates = scratch->candidates;
  candidates.clear();
  candidates.reserve(num_items);
  for (int item = 0; item < num_items; ++item) {
    if (!excluded[item]) candidates.push_back(item);
  }

  // Blocked scoring feeding a bounded worst-on-top heap over
  // scratch->heap: front() is the worst of the best-k-so-far; a candidate
  // enters only if it ranks before it. Exact element set a
  // std::priority_queue<HeapWorstOnTop> would keep.
  std::vector<std::pair<float, int>>& heap = scratch->heap;
  heap.clear();
  heap.reserve(request.k);
  float* scores = scratch->scores.data();
  for (size_t begin = 0; begin < candidates.size();
       begin += options_.item_block) {
    const int count = static_cast<int>(std::min<size_t>(
        options_.item_block, candidates.size() - begin));
    ScoreIds(request.target_domain, resolved.row, candidates.data() + begin,
             count, scratch, scores);
    for (int i = 0; i < count; ++i) {
      const std::pair<float, int> entry(scores[i],
                                        candidates[begin + i]);
      if (static_cast<int>(heap.size()) < request.k) {
        heap.push_back(entry);
        std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop());
      } else if (RanksBefore(entry.first, entry.second, heap.front().first,
                             heap.front().second)) {
        std::pop_heap(heap.begin(), heap.end(), HeapWorstOnTop());
        heap.back() = entry;
        std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop());
      }
    }
  }

  // Restore the all-zero bitmap invariant (only the bits set above).
  for (int item : request.exclude) excluded[item] = 0;

  // RanksBefore is a total order, so sorting the kept set best-first
  // yields exactly the sequence the old heap-drain extraction produced.
  std::sort(heap.begin(), heap.end(),
            [](const std::pair<float, int>& a, const std::pair<float, int>& b) {
              return RanksBefore(a.first, a.second, b.first, b.second);
            });

  Recommendation rec;
  rec.cold_start = resolved.cold_start;
  rec.items.reserve(heap.size());
  rec.scores.reserve(heap.size());
  for (const std::pair<float, int>& entry : heap) {
    rec.scores.push_back(entry.first);
    rec.items.push_back(entry.second);
  }
  return rec;
}

std::vector<Recommendation> ScoreEngine::TopKBatch(
    const std::vector<RecRequest>& requests) const {
  for (const RecRequest& request : requests) ValidateRequest(request);
  // Requests are independent, so the batch fans out across the shared
  // pool (grain 1: one request is already a full-catalog scan). Each
  // request writes only its own output slot, so the result is identical
  // to the serial loop.
  std::vector<Recommendation> out(requests.size());
  ThreadPool::Shared()->ParallelFor(
      0, static_cast<int64_t>(requests.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        ScoreScratch scratch;
        for (int64_t i = begin; i < end; ++i) {
          out[i] = TopKWithScratch(requests[i], &scratch);
        }
      });
  return out;
}

ScoreEngine::Counters ScoreEngine::counters() const {
  Counters c;
  c.requests = requests_.load(std::memory_order_relaxed);
  c.pairs_scored = pairs_scored_.load(std::memory_order_relaxed);
  c.cold_start_requests = cold_start_requests_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace nmcdr
