#ifndef NMCDR_SERVING_CLUSTER_CLUSTER_SERVER_H_
#define NMCDR_SERVING_CLUSTER_CLUSTER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "serving/cluster/admission.h"
#include "serving/cluster/snapshot_registry.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace nmcdr {
namespace cluster {

/// Aggregate serving statistics, scraped from the server's metrics
/// registry by ClusterServer::stats() and summed over the request
/// classes. Latencies are measured enqueue-to-response over served (kOk)
/// requests; quantiles come from the all-class cluster.latency_ms
/// histogram (obs/metrics.h), so p50/p95/p99 are bucket-interpolated
/// estimates while every count, the sum and the max are exact.
struct ServerStats {
  int64_t requests_submitted = 0;
  int64_t requests_served = 0;
  int64_t cold_start_served = 0;
  int64_t batches = 0;
  int64_t max_queue_depth = 0;
  int64_t max_batch_size = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  /// Seconds since the server started (filled when stats() is taken).
  double wall_seconds = 0.0;

  double MeanLatencyMs() const;
  double MeanBatchSize() const;
  /// Served requests per wall-clock second since start.
  double ThroughputPerSec() const;

  /// Human-readable one-per-line dump for demos and logs.
  std::string ToString() const;
};

/// The request server: admission control in front, the RCU-published
/// ShardedSnapshot behind. A one-shard layout (ShardLayout::Uniform(
/// snapshot, 1)) is the monolithic case, bit-exact against
/// ScoreEngine::TopK. The server owns no threads — up to `num_threads`
/// drainer tasks run on ThreadPool::Shared(), each pass popping up to
/// `max_batch` admitted tickets (interactive first), acquiring the
/// current snapshot version ONCE, and scoring the whole batch on it. A
/// snapshot published mid-batch is picked up by the next pass; in-flight
/// batches finish on the version they acquired — that, plus the
/// registry's refcounting, is the zero-downtime swap (bench_cluster
/// demonstrates it under load).
///
/// Invariant: whenever the admission queue is non-empty, a drainer is
/// active or being dispatched; Stop() returns only once the queue is
/// drained and every drainer has retired — nothing is left running on
/// the shared pool afterwards.
///
/// Shedding is part of the contract, not an error path: a Submit against
/// a full class queue resolves its future immediately with
/// kShedQueueFull (the caller is backpressured, the queue never grows
/// past capacity), and tickets that outlived their class deadline in
/// queue resolve with kShedDeadline at drain time. All shed/served
/// counts are recorded per class in the metrics registry
/// (cluster.{submitted,served,cold_start_served,shed_queue_full,
/// shed_deadline}.<class>, cluster.latency_ms.<class>,
/// cluster.queue_depth.<class>), next to the all-class cluster.batches
/// counter and cluster.latency_ms histogram. Accounting is recorded
/// unconditionally — the traffic counts are part of the server's
/// contract (tests assert exact values), so the obs enable flags do not
/// apply here.
class ClusterServer {
 public:
  struct Options {
    /// Maximum concurrent drainer tasks.
    int num_threads = 2;
    /// Tickets drained per pass.
    int max_batch = 8;
    AdmissionOptions admission;
    /// Registry receiving cluster.* metrics; nullptr = private registry.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Publishes `initial` (must be non-null) as version 1, so the server
  /// is never without a model.
  ClusterServer(std::shared_ptr<const ShardedSnapshot> initial,
                Options options);

  /// Stops the server (draining queued admitted requests first).
  ~ClusterServer();

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  /// Admits or sheds `request`. The future always resolves (with a
  /// non-kOk status for shed/stopped requests) — no exceptions on the
  /// shedding path, so overload handling is branch, not unwind.
  /// Validates `request.rec` against the current snapshot (aborts on
  /// malformed input) so drainers can run the DCHECK-only scratch core.
  std::future<ClusterResponse> Submit(ClusterRequest request)
      NMCDR_EXCLUDES(mu_);

  /// Publishes a new snapshot version while traffic keeps flowing;
  /// returns the new version. Thread-safe; callable from a pool task.
  int64_t Publish(std::shared_ptr<const ShardedSnapshot> next);

  /// Drains every admitted request, waits for drainers to retire, then
  /// returns. Idempotent; Submit after Stop resolves with kStopped.
  /// Must not be called from inside a shared-pool task.
  void Stop() NMCDR_EXCLUDES(mu_);

  int active_drainers() const NMCDR_EXCLUDES(mu_);

  /// Scrapes the registry into a ServerStats. Each field is individually
  /// exact; a scrape racing in-flight drainers may observe a request in
  /// one field but not yet another. After every submitted future has
  /// resolved the snapshot is fully consistent: drainers finish all
  /// bookkeeping before fulfilling promises.
  ServerStats stats() const NMCDR_EXCLUDES(mu_);

  /// Highest snapshot version any completed batch has observed
  /// (monotone — asserted under TSan in cluster_test).
  int64_t last_observed_version() const {
    return last_observed_version_.load(std::memory_order_relaxed);
  }

  SnapshotRegistry& registry() { return registry_; }
  const AdmissionQueue& admission() const { return admission_; }
  obs::MetricsRegistry& metrics_registry() const { return *metrics_; }

 private:
  void DrainLoop() NMCDR_EXCLUDES(mu_);
  /// Resolves a ticket's promise with a shed/stopped status and records
  /// the per-class counter. Lock-agnostic: touches only promises and
  /// sharded counters, so it is called both with and without mu_ held.
  void Shed(AdmissionTicket&& ticket, ClusterStatus status);

  /// Reserves a drainer slot when `queued` admitted tickets justify one
  /// (the non-empty-queue-has-a-drainer invariant, plus extra
  /// parallelism up to num_threads). Returns true when the caller must
  /// dispatch a DrainLoop task — after releasing mu_, never under it.
  bool TryReserveDrainerLocked(int queued) NMCDR_REQUIRES(mu_);

  Options options_;
  Stopwatch uptime_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;  // owned_metrics_ or Options::metrics
  SnapshotRegistry registry_;
  AdmissionQueue admission_;

  // Resolved once in the constructor, indexed by RequestClass.
  obs::Counter* submitted_[kNumRequestClasses];
  obs::Counter* served_[kNumRequestClasses];
  obs::Counter* cold_start_served_[kNumRequestClasses];
  obs::Counter* shed_queue_full_[kNumRequestClasses];
  obs::Counter* shed_deadline_[kNumRequestClasses];
  obs::Counter* stopped_rejects_;
  obs::Gauge* queue_depth_[kNumRequestClasses];
  obs::Histogram* latency_ms_[kNumRequestClasses];
  /// All-class latency: histograms have no merge, so the stats()
  /// quantiles need their own.
  obs::Histogram* latency_ms_all_;
  obs::Counter* batches_;

  std::atomic<int64_t> last_observed_version_{0};

  mutable std::mutex mu_;
  /// Signalled when a drainer retires (Stop waits on it).
  std::condition_variable drained_cv_;
  int active_drainers_ = 0;      // GUARDED_BY(mu_)
  bool stopping_ = false;        // GUARDED_BY(mu_)
  int64_t max_queue_depth_ = 0;  // GUARDED_BY(mu_)
  int64_t max_batch_size_ = 0;   // GUARDED_BY(mu_)
};

}  // namespace cluster
}  // namespace nmcdr

#endif  // NMCDR_SERVING_CLUSTER_CLUSTER_SERVER_H_
