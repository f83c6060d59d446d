#include "serving/cluster/sharded_snapshot.h"

#include <algorithm>
#include <utility>

#include "serving/quantized_snapshot.h"
#include "serving/scoring_kernels.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace nmcdr {
namespace cluster {
namespace {

/// (score, item) entry ordered so a worst-on-top binary heap's front() is
/// the WORST kept candidate (RanksBefore acts as the strict weak "less")
/// — the same bounded-heap scheme as ScoreEngine::TopKWithScratch, and
/// the same total order, so the per-shard winners merge into exactly the
/// global top-K. Used with std::push_heap / std::pop_heap over a
/// ShardScratch::Slot's heap vector.
struct HeapWorstOnTop {
  bool operator()(const std::pair<float, int>& a,
                  const std::pair<float, int>& b) const {
    return RanksBefore(a.first, a.second, b.first, b.second);
  }
};

Matrix CopyRowRange(const Matrix& source, int begin, int end) {
  Matrix out(end - begin, source.cols());
  if (end > begin) {
    std::copy(source.row(begin), source.row(begin) + out.size(), out.data());
  }
  return out;
}

/// Rows [begin, end) of `source`, codes and per-row parameters alike.
QuantizedRows SliceRows(const QuantizedRows& source, int begin, int end) {
  QuantizedRows out;
  out.rows = end - begin;
  out.cols = source.cols;
  out.q.assign(source.row(begin), source.row(end));
  out.scale.assign(source.scale.begin() + begin, source.scale.begin() + end);
  out.zero.assign(source.zero.begin() + begin, source.zero.begin() + end);
  out.qsum.assign(source.qsum.begin() + begin, source.qsum.begin() + end);
  return out;
}

}  // namespace

void ShardScratch::Prepare(int num_items, int item_block, int head_width,
                           int num_shards, int dim) {
  // Growth-only, converging to the snapshot's geometry so later calls are
  // no-ops. `excluded` grows zero-filled and the core restores the zeros
  // it sets, keeping the all-zero invariant.
  if (static_cast<int>(excluded.size()) < num_items) {
    excluded.resize(num_items, 0);
  }
  if (static_cast<int>(u_first.size()) < head_width) u_first.resize(head_width);
  if (static_cast<int>(uw.size()) < dim) {
    uw.resize(dim);
    qu.resize(dim);
  }
  if (static_cast<int>(per_shard.size()) < num_shards) {
    per_shard.resize(num_shards);
  }
  for (Slot& slot : per_shard) {
    if (static_cast<int>(slot.scores.size()) < item_block) {
      slot.scores.resize(item_block);
    }
    if (static_cast<int>(slot.h.size()) < head_width) {
      slot.h.resize(head_width);
      slot.next.resize(head_width);
    }
  }
}

void BatchShardScratch::Prepare(size_t n) {
  if (per_request.size() < n) per_request.resize(n);
}

ShardedSnapshot::ShardedSnapshot(const ModelSnapshot& snapshot,
                                 const ShardLayout& layout, Options options)
    : ShardedSnapshot(snapshot, layout, options, nullptr) {}

ShardedSnapshot::ShardedSnapshot(const ModelSnapshot& snapshot,
                                 const ShardLayout& layout, Options options,
                                 const QuantizedSnapshot& quantized)
    : ShardedSnapshot(snapshot, layout, options, &quantized) {}

ShardedSnapshot::ShardedSnapshot(const ModelSnapshot& snapshot,
                                 const ShardLayout& layout, Options options,
                                 const QuantizedSnapshot* quantized)
    : layout_(layout), options_(options) {
  std::string error;
  if (!layout.Validate(snapshot, &error)) {
    LOG_ERROR << "ShardedSnapshot: " << error;
    NMCDR_CHECK(false);
  }
  if (quantized != nullptr) {
    NMCDR_CHECK(options_.mode == ScoreEngine::Mode::kQuantized);
    if (!quantized->Matches(snapshot, &error)) {
      LOG_ERROR << "ShardedSnapshot: quantized tables do not fit the "
                   "snapshot: "
                << error;
      NMCDR_CHECK(false);
    }
  }
  NMCDR_CHECK_GT(snapshot.num_domains(), 0);
  NMCDR_CHECK_GT(options_.item_block, 0);
  num_persons_ = snapshot.num_persons();
  dim_ = snapshot.domain(0).frozen.dim();
  domains_.reserve(snapshot.num_domains());
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    const SnapshotDomain& source = snapshot.domain(d);
    NMCDR_CHECK_EQ(source.frozen.dim(), dim_);
    Domain domain;
    domain.head = source.frozen.head;
    domain.user_to_person = source.user_to_person;
    domain.person_to_user = source.person_to_user;
    domain.num_users = source.num_users();
    domain.num_items = source.num_items();
    domain.shards.reserve(layout_.num_shards);
    for (int s = 0; s < layout_.num_shards; ++s) {
      const DomainSplits& splits = layout_.domains[d];
      DomainShard shard;
      shard.user_begin = splits.user_splits[s];
      shard.item_begin = splits.item_splits[s];
      const int item_end = splits.item_splits[s + 1];
      shard.user_rows = CopyRowRange(source.frozen.user_reps,
                                     splits.user_splits[s],
                                     splits.user_splits[s + 1]);
      if (quantized != nullptr) {
        // The artifact's rows for this slice: the same codes per-slice
        // quantization below would produce (row-independence).
        const QuantizedDomain& qd = quantized->domain(d);
        shard.item_first_q =
            SliceRows(qd.item_first, shard.item_begin, item_end);
        shard.item_gmf_q = SliceRows(qd.item_gmf, shard.item_begin, item_end);
      } else if (options_.mode == ScoreEngine::Mode::kQuantized) {
        // Quantize-at-freeze, slice-by-slice: identical rows as the
        // monolithic QuantizedSnapshot::Quantize tables (BuildItemFirst
        // and per-row quantization are both row-independent). The float
        // item slice is NOT kept — the quantized tables replace it.
        const Matrix item_rows =
            CopyRowRange(source.frozen.item_reps, shard.item_begin, item_end);
        shard.item_first_q = QuantizeRows(
            scoring::BuildItemFirst(domain.head, item_rows));
        shard.item_gmf_q = QuantizeRows(item_rows);
      } else {
        shard.item_rows =
            CopyRowRange(source.frozen.item_reps, shard.item_begin, item_end);
        if (options_.mode == ScoreEngine::Mode::kFast) {
          // Identical rows as the monolithic precompute (MatMul is row-
          // independent), just computed slice-by-slice.
          shard.item_first = scoring::BuildItemFirst(domain.head,
                                                     shard.item_rows);
        }
      }
      domain.shards.push_back(std::move(shard));
    }
    domains_.push_back(std::move(domain));
  }
}

const float* ShardedSnapshot::UserRow(int d, int user) const {
  const int s = layout_.UserShard(d, user);
  const DomainShard& shard = domains_[d].shards[s];
  return shard.user_rows.row(user - shard.user_begin);
}

void ShardedSnapshot::ValidateRequest(const RecRequest& request) const {
  NMCDR_CHECK_GE(request.target_domain, 0);
  NMCDR_CHECK_LT(request.target_domain, num_domains());
  NMCDR_CHECK_GE(request.user_domain, 0);
  NMCDR_CHECK_LT(request.user_domain, num_domains());
  NMCDR_CHECK_GE(request.user, 0);
  NMCDR_CHECK_LT(request.user, domains_[request.user_domain].num_users);
  NMCDR_CHECK_GT(request.k, 0);
  const int num_items = domains_[request.target_domain].num_items;
  for (int item : request.exclude) {
    NMCDR_CHECK_GE(item, 0);
    NMCDR_CHECK_LT(item, num_items);
  }
}

ShardedSnapshot::ResolvedUser ShardedSnapshot::Resolve(int target_domain,
                                                       int user_domain,
                                                       int user) const {
  NMCDR_DCHECK_GE(target_domain, 0);
  NMCDR_DCHECK_LT(target_domain, num_domains());
  NMCDR_DCHECK_GE(user_domain, 0);
  NMCDR_DCHECK_LT(user_domain, num_domains());
  NMCDR_DCHECK_GE(user, 0);
  NMCDR_DCHECK_LT(user, domains_[user_domain].num_users);

  int resolved = user;
  if (user_domain != target_domain) {
    const int person = domains_[user_domain].user_to_person[user];
    resolved = (person < 0 || person >= num_persons_)
                   ? -1
                   : domains_[target_domain].person_to_user[person];
  }
  ResolvedUser out;
  if (resolved >= 0) {
    out.row = UserRow(target_domain, resolved);
  } else {
    // Cross-domain cold start, same policy as ScoreEngine::Resolve: rank
    // with the home-domain representation.
    out.row = UserRow(user_domain, user);
    out.cold_start = true;
  }
  return out;
}

Recommendation ShardedSnapshot::TopK(const RecRequest& request) const {
  ValidateRequest(request);
  ShardScratch scratch;
  return TopKWithScratch(request, &scratch);
}

Recommendation ShardedSnapshot::TopKWithScratch(const RecRequest& request,
                                                ShardScratch* scratch) const {
  NMCDR_DCHECK_GT(request.k, 0);
  const ResolvedUser resolved =
      Resolve(request.target_domain, request.user_domain, request.user);
  const Domain& domain = domains_[request.target_domain];
  const float* u = resolved.row;
  scratch->Prepare(domain.num_items, options_.item_block,
                   scoring::MaxHeadWidth(domain.head), layout_.num_shards,
                   dim_);

  // Sparse exclusion bitmap: all-zero between calls, so marking costs
  // O(|exclude|) and the restore loop below undoes exactly these writes.
  std::vector<uint8_t>& excluded = scratch->excluded;
  for (int item : request.exclude) {
    NMCDR_DCHECK_GE(item, 0);
    NMCDR_DCHECK_LT(item, domain.num_items);
    excluded[item] = 1;
  }

  // kFast/kQuantized share one user-side first-layer partial across
  // shards (the monolithic path recomputes it per block; the computation
  // is deterministic, so the bits are the same either way). kQuantized
  // additionally quantizes the user-side gmf operand once — a pure
  // function of u and the head, so the codes match the monolithic
  // engine's bit for bit.
  scoring::QuantizedUser quser;
  if (options_.mode != ScoreEngine::Mode::kExact) {
    scoring::UserFirstPartial(domain.head, u, scratch->u_first.data());
  }
  if (options_.mode == ScoreEngine::Mode::kQuantized) {
    quser = scoring::QuantizeUserGmf(domain.head, u, scratch->uw.data(),
                                     scratch->qu.data());
  }

  // Fan the per-shard catalog scans out over the shared pool (grain 1: a
  // shard scan is a full pass over its slice). Shard s only touches
  // scratch slot s, so the fan-out is race-free and deterministic.
  ThreadPool::Shared()->ParallelFor(
      0, layout_.num_shards, /*grain=*/1, [&](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) {
          const DomainShard& shard = domain.shards[s];
          const int local_items = shard.num_local_items();
          ShardScratch::Slot& slot = scratch->per_shard[s];
          std::vector<int>& candidates = slot.candidates;
          candidates.clear();
          candidates.reserve(local_items);
          for (int local = 0; local < local_items; ++local) {
            if (!excluded[shard.item_begin + local]) {
              candidates.push_back(local);
            }
          }
          // Bounded worst-on-top heap over the slot's heap vector:
          // front() is the worst of the best-k-so-far — the exact element
          // set a std::priority_queue<HeapWorstOnTop> would keep.
          std::vector<std::pair<float, int>>& heap = slot.heap;
          heap.clear();
          heap.reserve(request.k);
          float* scores = slot.scores.data();
          for (size_t block = 0; block < candidates.size();
               block += options_.item_block) {
            const int count = static_cast<int>(std::min<size_t>(
                options_.item_block, candidates.size() - block));
            if (options_.mode == ScoreEngine::Mode::kFast) {
              scoring::FastScoreIds(domain.head, shard.item_rows,
                                    shard.item_first, u,
                                    scratch->u_first.data(),
                                    candidates.data() + block, count,
                                    slot.h.data(), slot.next.data(), scores);
            } else if (options_.mode == ScoreEngine::Mode::kQuantized) {
              scoring::QuantizedScoreIds(domain.head, shard.item_first_q,
                                         shard.item_gmf_q,
                                         scratch->u_first.data(), quser,
                                         candidates.data() + block, count,
                                         slot.h.data(), slot.next.data(),
                                         scores);
            } else {
              scoring::ExactScoreIds(domain.head, shard.item_rows, u,
                                     candidates.data() + block, count,
                                     options_.item_block, scores);
            }
            for (int i = 0; i < count; ++i) {
              const std::pair<float, int> entry(
                  scores[i], shard.item_begin + candidates[block + i]);
              if (static_cast<int>(heap.size()) < request.k) {
                heap.push_back(entry);
                std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop());
              } else if (RanksBefore(entry.first, entry.second,
                                     heap.front().first,
                                     heap.front().second)) {
                std::pop_heap(heap.begin(), heap.end(), HeapWorstOnTop());
                heap.back() = entry;
                std::push_heap(heap.begin(), heap.end(), HeapWorstOnTop());
              }
            }
          }
        }
      });

  // Restore the all-zero bitmap invariant (only the bits set above).
  for (int item : request.exclude) excluded[item] = 0;

  // Deterministic merge: every shard's winners under the shared total
  // order; the best k of the union are exactly the global best k. Global
  // item ids are unique across shards, so the sorted order is unique
  // regardless of the shards' heap layouts.
  std::vector<std::pair<float, int>>& merged = scratch->merged;
  merged.clear();
  merged.reserve(static_cast<size_t>(layout_.num_shards) * request.k);
  for (int s = 0; s < layout_.num_shards; ++s) {
    for (const std::pair<float, int>& entry : scratch->per_shard[s].heap) {
      merged.push_back(entry);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<float, int>& a, const std::pair<float, int>& b) {
              return RanksBefore(a.first, a.second, b.first, b.second);
            });
  const size_t keep =
      std::min<size_t>(merged.size(), static_cast<size_t>(request.k));

  Recommendation rec;
  rec.cold_start = resolved.cold_start;
  rec.items.reserve(keep);
  rec.scores.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    rec.items.push_back(merged[i].second);
    rec.scores.push_back(merged[i].first);
  }
  return rec;
}

std::vector<Recommendation> ShardedSnapshot::TopKBatch(
    const std::vector<RecRequest>& requests) const {
  for (const RecRequest& request : requests) ValidateRequest(request);
  BatchShardScratch scratch;
  return TopKBatchWithScratch(requests, &scratch);
}

std::vector<Recommendation> ShardedSnapshot::TopKBatchWithScratch(
    const std::vector<RecRequest>& requests,
    BatchShardScratch* scratch) const {
  // One task per request; the nested per-shard ParallelFor inside
  // TopKWithScratch runs inline on the worker, so under batch load the
  // parallelism comes from request fan-out and under single-request load
  // from shard fan-out. Request i always uses scratch slot i, so
  // concurrent requests touch disjoint buffers.
  scratch->Prepare(requests.size());
  // NMCDR_LINT_ALLOW(hot-alloc): output materialization, one per batch.
  std::vector<Recommendation> out(requests.size());
  ThreadPool::Shared()->ParallelFor(
      0, static_cast<int64_t>(requests.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          out[i] = TopKWithScratch(requests[i], &scratch->per_request[i]);
        }
      });
  return out;
}

}  // namespace cluster
}  // namespace nmcdr
