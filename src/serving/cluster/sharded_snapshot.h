#ifndef NMCDR_SERVING_CLUSTER_SHARDED_SNAPSHOT_H_
#define NMCDR_SERVING_CLUSTER_SHARDED_SNAPSHOT_H_

#include <vector>

#include "serving/cluster/shard_layout.h"
#include "serving/score_engine.h"

namespace nmcdr {
namespace cluster {

/// Caller-owned reusable buffers for the allocation-free sharded
/// retrieval core (ShardedSnapshot::TopKWithScratch). One slot per shard
/// keeps the pool fan-out race-free: shard s only ever touches
/// per_shard[s]. Prepare() is the only growth point (NMCDR_COLD,
/// amortized: a no-op once buffers reached the snapshot's geometry).
/// Invariant between calls: `excluded` is all-zero — the core sets and
/// clears only the request's own exclusion bits.
struct ShardScratch {
  /// Per-shard buffers; candidates/heap hold shard-local state during the
  /// fanned-out scan.
  struct Slot {
    std::vector<int> candidates;
    std::vector<float> scores;
    std::vector<float> h;
    std::vector<float> next;
    std::vector<std::pair<float, int>> heap;
  };

  std::vector<uint8_t> excluded;
  std::vector<float> u_first;
  std::vector<std::pair<float, int>> merged;
  std::vector<Slot> per_shard;
  /// kQuantized only: the per-request user-side gmf operand (floats, then
  /// its int8 codes — scoring::QuantizeUserGmf), shared by every shard.
  std::vector<float> uw;
  std::vector<int8_t> qu;

  /// Grows every buffer to the given geometry (target catalog size,
  /// scoring block, widest head layer — scoring::MaxHeadWidth — the
  /// layout's shard count, and, for the quantized mode, the
  /// representation dim).
  void Prepare(int num_items, int item_block, int head_width, int num_shards,
               int dim = 0) NMCDR_COLD;
};

/// Per-batch scratch for TopKBatchWithScratch fan-out: request i always
/// uses slot i, so concurrent requests touch disjoint buffers and results
/// never depend on the pool schedule.
struct BatchShardScratch {
  std::vector<ShardScratch> per_request;

  /// Grows the slot vector to `n` slots.
  void Prepare(size_t n) NMCDR_COLD;
};

/// A ModelSnapshot partitioned for cluster serving: per domain, the user
/// and item representation tables are cut into the contiguous row ranges
/// a ShardLayout describes, each shard owning its slice (deep copies —
/// the source snapshot can be freed or refrozen after construction, which
/// is what lets the SnapshotRegistry retire old versions independently).
/// The small prediction head and the person-link tables are replicated.
///
/// Top-K retrieval fans the per-shard scans out over the shared thread
/// pool; each shard feeds its slice through the row-independent kernels
/// of serving/scoring_kernels.h into a local bounded heap, and the
/// per-shard winners are merged under the same deterministic total order
/// (RanksBefore). Because per-item scores do not depend on shard
/// composition and the order is total, the merged result is bit-identical
/// to ScoreEngine::TopKBatch on the unsharded snapshot for ANY valid
/// layout (asserted across 1/2/4/7 shards in tests/cluster_test.cc).
///
/// Immutable after construction; all methods are const and safe to call
/// concurrently — the unit the RCU-style SnapshotRegistry publishes.
class ShardedSnapshot {
 public:
  struct Options {
    /// kExact/kFast behave as in ScoreEngine. kQuantized stores each
    /// shard's item tables as per-row int8 (no float item slice at all);
    /// because quantization is row-independent, sharded quantized top-K
    /// is bit-identical to ScoreEngine::Mode::kQuantized on the
    /// unsharded snapshot.
    ScoreEngine::Mode mode = ScoreEngine::Mode::kFast;
    /// Items scored per dense block during a shard's catalog scan.
    int item_block = 256;
  };

  /// `layout` must Validate against `snapshot`. The snapshot is deep-
  /// copied slice-by-slice; it is not referenced afterwards.
  ShardedSnapshot(const ModelSnapshot& snapshot, const ShardLayout& layout,
                  Options options);
  ShardedSnapshot(const ModelSnapshot& snapshot, const ShardLayout& layout)
      : ShardedSnapshot(snapshot, layout, Options()) {}

  /// Serves a prebuilt quantized artifact (typically QuantizedSnapshot::
  /// Load of the file written at freeze time): each shard takes its row
  /// slices of `quantized` instead of re-quantizing — bit-identical shards,
  /// because quantization is row-independent. Requires options.mode ==
  /// kQuantized and quantized.Matches(snapshot) (checked).
  ShardedSnapshot(const ModelSnapshot& snapshot, const ShardLayout& layout,
                  Options options, const QuantizedSnapshot& quantized);

  int num_shards() const { return layout_.num_shards; }
  int num_domains() const { return static_cast<int>(domains_.size()); }
  int num_users(int d) const { return domains_[d].num_users; }
  int num_items(int d) const { return domains_[d].num_items; }
  const ShardLayout& layout() const { return layout_; }
  ScoreEngine::Mode mode() const { return options_.mode; }

  /// Sharded full-catalog top-K with the request's exclusion set;
  /// bit-identical to ScoreEngine::TopK on the source snapshot.
  /// Convenience wrapper: validates the request (aborts on malformed
  /// input) and runs the scratch core over a local ShardScratch.
  Recommendation TopK(const RecRequest& request) const;

  /// The allocation-free retrieval core: identical results to TopK, but
  /// every buffer lives in `scratch` (typically owned by a drainer and
  /// reused across requests) and inputs are only NMCDR_DCHECK'd —
  /// validate at the edge (ValidateRequest / the TopK wrapper) first.
  Recommendation TopKWithScratch(const RecRequest& request,
                                 ShardScratch* scratch) const NMCDR_HOT;

  /// Serves a batch, fanned out over ThreadPool::Shared() (one task per
  /// request; each request's shard scans run inline inside it — nested
  /// ParallelFor degrades gracefully). Identical to calling TopK per
  /// request. Validates every request, then runs the scratch core over a
  /// local BatchShardScratch.
  std::vector<Recommendation> TopKBatch(
      const std::vector<RecRequest>& requests) const;

  /// Batch core for drainers holding reusable scratch. The output vector
  /// is the one per-batch materialization (NMCDR_LINT_ALLOW'd in the
  /// implementation).
  std::vector<Recommendation> TopKBatchWithScratch(
      const std::vector<RecRequest>& requests,
      BatchShardScratch* scratch) const NMCDR_HOT;

  /// Aborts (NMCDR_CHECK) unless `request` is well-formed against this
  /// snapshot: domains in range, user in range for its domain, k
  /// positive, every excluded item in the target catalog. Serving edges
  /// (ClusterServer admission, the TopK/TopKBatch wrappers) call this so
  /// the hot core can run on NMCDR_DCHECKs alone.
  void ValidateRequest(const RecRequest& request) const;

 private:
  /// One domain's slice owned by one shard. `user_begin`/`item_begin`
  /// are the global ids of row 0 (layout splits), so global id g lives at
  /// local row g - begin.
  struct DomainShard {
    Matrix user_rows;
    /// kExact/kFast: the float item slice. Empty under kQuantized — the
    /// quantized tables below fully replace it (the memory win).
    Matrix item_rows;
    Matrix item_first;  // kFast only: BuildItemFirst over item_rows
    /// kQuantized only: both per-candidate item tables as per-row int8.
    /// Row-independent quantization makes each slice bit-identical to the
    /// corresponding rows of the monolithic quantized tables.
    QuantizedRows item_first_q;
    QuantizedRows item_gmf_q;
    int user_begin = 0;
    int item_begin = 0;

    int num_local_items() const {
      return item_gmf_q.rows > 0 ? item_gmf_q.rows : item_rows.rows();
    }
  };

  struct Domain {
    FrozenPredictionHead head;  // replicated, small
    std::vector<int> user_to_person;
    std::vector<int> person_to_user;
    std::vector<DomainShard> shards;
    int num_users = 0;
    int num_items = 0;
  };

  struct ResolvedUser {
    const float* row = nullptr;  // user representation, dim floats
    bool cold_start = false;
  };

  /// Both public constructors: `quantized` is the artifact to slice, or
  /// nullptr to quantize each slice at construction.
  ShardedSnapshot(const ModelSnapshot& snapshot, const ShardLayout& layout,
                  Options options, const QuantizedSnapshot* quantized);

  /// Mirrors ModelSnapshot::ResolveUser + ScoreEngine::Resolve over the
  /// sharded tables (the owning shard is found through the layout).
  ResolvedUser Resolve(int target_domain, int user_domain, int user) const
      NMCDR_HOT;
  const float* UserRow(int d, int user) const NMCDR_HOT;

  ShardLayout layout_;
  Options options_;
  std::vector<Domain> domains_;
  int num_persons_ = 0;
  int dim_ = 0;
};

}  // namespace cluster
}  // namespace nmcdr

#endif  // NMCDR_SERVING_CLUSTER_SHARDED_SNAPSHOT_H_
