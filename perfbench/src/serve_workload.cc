// serve_wide_catalog: a closed loop of client threads, each sending its
// next interactive top-K request through cluster::ClusterServer::Submit only
// after the previous future is ready. It is read-only against a two-shard
// snapshot whose per-request scan (item rows plus kFast first-layer
// partials) is well past the 2 MiB L2, so the scoring kernels, shard
// fan-out and merge do nearly all the work. Its traced run ends with a
// phase that publishes new versions under the same reads, which attributes
// the publish path per layer.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/obs.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "topk_check.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cl = nmcdr::cluster;
using nmcdr::ModelSnapshot;
using nmcdr::RecRequest;

constexpr int kUsersPerDomain = 4000;
constexpr int kItemsPerDomain = 40000;
constexpr int kShards = 2;
/// The traced run adds a phase after its measuring windows that builds and
/// publishes a new version at this interval while reads continue, so the
/// publish path is attributed per layer without touching the untraced run.
constexpr double kPublishIntervalS = 0.1;
/// Distinct pre-generated requests each client cycles through.
constexpr int kRequestsPerClient = 512;
/// One response in kCheckEvery is kept for the reference check, at most
/// kMaxChecks per client. kCheckEvery is prime to the mix's period, so the
/// sample covers every request kind.
constexpr int kCheckEvery = 7;
constexpr int kMaxChecks = 24;
/// Distinct snapshots the traced run's publisher cycles through.
constexpr int kVersions = 3;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 25;

nmcdr::SyntheticSnapshotSpec SnapshotSpec(uint64_t seed) {
  nmcdr::SyntheticSnapshotSpec spec;  // D=16, head width 16, 20 % overlap
  spec.users_per_domain = kUsersPerDomain;
  spec.items_per_domain = kItemsPerDomain;
  spec.seed = seed;
  return spec;
}

struct Served {
  std::vector<std::unique_ptr<ModelSnapshot>> snapshots;
  std::unique_ptr<cl::ClusterServer> server;
};

Served BuildServed(uint64_t seed, int pool_threads, int versions) {
  Served s;
  for (int v = 0; v < versions; ++v) {
    s.snapshots.push_back(std::make_unique<ModelSnapshot>(
        ModelSnapshot::MakeSynthetic(SnapshotSpec(seed * 31 + v))));
  }
  auto initial = std::make_shared<const cl::ShardedSnapshot>(
      *s.snapshots[0], cl::ShardLayout::Uniform(*s.snapshots[0], kShards));
  cl::ClusterServer::Options options;
  options.num_threads = pool_threads;
  s.server = std::make_unique<cl::ClusterServer>(std::move(initial), options);
  return s;
}

struct Sample {
  int request;
  cl::ClusterResponse response;
};

/// A completed request of a traced run, for the per-layer figures.
struct Done {
  int64_t start_ns;
  int64_t end_ns;
  float submit_us;
  float server_ms;
};

/// What one client keeps. Untraced windows keep only a float latency per
/// request, so the benchmark's own bookkeeping barely moves the peak
/// resident set it reports.
struct ClientLog {
  std::vector<float> latency_ms;      // untraced windows, in order
  std::vector<int64_t> per_window;    // completions per measuring window
  std::vector<int64_t> per_slice;     // untraced run: completions per slice
  std::vector<Done> done;             // traced run only
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t stale_versions = 0;
};

struct PublishLog {
  int64_t start_ns;
  int64_t end_ns;
  double build_ms;
  double publish_us;
};

/// Throughput is the median over this many equal slices of the untraced
/// window, so a burst of machine noise moves one slice, not the figure.
constexpr int kSlices = 10;

}  // namespace

void RunServeWorkload(const RunArgs& args, Report* report) {
  Tracer tracer;

  const int versions = args.trace ? kVersions : 1;
  std::vector<double> setup_s;
  Served served;
  for (int i = 0; i < kSetups; ++i) {
    served = Served();
    const double t0 = NowSeconds();
    served = BuildServed(args.seed, args.pool_threads, versions);
    setup_s.push_back(NowSeconds() - t0);
  }
  cl::ClusterServer& server = *served.server;
  const ModelSnapshot& base = *served.snapshots[0];
  report->Note("catalog", std::to_string(kItemsPerDomain) +
                              " items x 2 domains, " +
                              std::to_string(kUsersPerDomain) +
                              " users per domain, " + std::to_string(kShards) +
                              " shards");

  std::vector<std::vector<RecRequest>> requests(args.clients);
  for (int c = 0; c < args.clients; ++c) {
    requests[c] = MakeRequests(base, kRequestsPerClient,
                               args.seed * 1000 + static_cast<uint64_t>(c));
  }

  // Measuring windows, planned before the clients start: after a 0.5 s
  // warm-up the untraced run measures one window of args.seconds; the
  // traced run alternates four untraced and traced quarter-windows to
  // measure the tracing overhead. A request counts for a window when it
  // started and finished inside it.
  const int windows = args.trace ? 4 : 1;
  const int64_t window_len_ns =
      static_cast<int64_t>(args.seconds * 1e9) / windows;
  const int64_t origin_ns = nmcdr::obs::NowNs() + 500000000;
  auto window_of = [&](int64_t start_ns, int64_t end_ns) {
    if (start_ns < origin_ns) return -1;
    const int64_t w = (start_ns - origin_ns) / window_len_ns;
    if (w >= windows || end_ns > origin_ns + (w + 1) * window_len_ns) return -1;
    return static_cast<int>(w);
  };
  auto traced_window = [&](int w) { return args.trace && w % 2 == 1; };

  // version -> index into served.snapshots, for the reference check.
  std::mutex version_mu;
  std::vector<int> version_snapshot = {-1, 0};  // version 1 = snapshot 0
  std::atomic<int64_t> current_version{1};
  std::atomic<bool> stop{false};
  std::vector<ClientLog> logs(args.clients);
  std::vector<std::thread> clients;
  for (int c = 0; c < args.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      log.latency_ms.reserve(1 << 20);
      log.per_window.assign(windows, 0);
      log.per_slice.assign(kSlices, 0);
      if (args.trace) log.done.reserve(1 << 18);
      const std::vector<RecRequest>& mine = requests[c];
      for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const int idx = static_cast<int>(i % static_cast<int64_t>(mine.size()));
        const int64_t id = (static_cast<int64_t>(c) << 32) + i;
        cl::ClusterRequest request;
        request.rec = mine[idx];
        const int64_t version_before = current_version.load();
        ScopedSpan req_span(&tracer, "client.request", id);
        const int64_t t0 = nmcdr::obs::NowNs();
        std::future<cl::ClusterResponse> future;
        {
          ScopedSpan span(&tracer, "cluster.submit", id);
          future = server.Submit(std::move(request));
        }
        const int64_t t1 = nmcdr::obs::NowNs();
        cl::ClusterResponse response;
        {
          ScopedSpan span(&tracer, "client.wait", id);
          response = future.get();
        }
        const int64_t t2 = nmcdr::obs::NowNs();
        ++log.attempted;
        if (response.status != cl::ClusterStatus::kOk) {
          ++log.failed;
          continue;
        }
        if (response.snapshot_version < version_before) ++log.stale_versions;
        const int w = window_of(t0, t2);
        if (w >= 0) {
          ++log.per_window[w];
          if (!traced_window(w)) {
            log.latency_ms.push_back(static_cast<float>(t2 - t0) * 1e-6f);
          }
          if (!args.trace) {
            ++log.per_slice[std::min<int64_t>(
                (t2 - origin_ns) * kSlices / window_len_ns, kSlices - 1)];
          }
        }
        if (args.trace) {
          log.done.push_back({t0, t2, static_cast<float>(t1 - t0) * 1e-3f,
                              static_cast<float>(response.latency_ms)});
        }
        if (i % kCheckEvery == 0 &&
            static_cast<int>(log.samples.size()) < kMaxChecks) {
          log.samples.push_back({idx, std::move(response)});
        }
      }
    });
  }

  std::vector<PublishLog> publishes;
  std::vector<double> drainers;
  int next_snapshot = 0;
  auto publish_one = [&] {
    next_snapshot = (next_snapshot + 1) % static_cast<int>(served.snapshots.size());
    const ModelSnapshot& snap = *served.snapshots[next_snapshot];
    ScopedSpan span(&tracer, "publish");
    const int64_t t0 = nmcdr::obs::NowNs();
    std::shared_ptr<const cl::ShardedSnapshot> next;
    {
      ScopedSpan build(&tracer, "sharded.build");
      next = std::make_shared<const cl::ShardedSnapshot>(
          snap, cl::ShardLayout::Uniform(snap, kShards));
    }
    const int64_t t1 = nmcdr::obs::NowNs();
    int64_t version = 0;
    {
      ScopedSpan pub(&tracer, "registry.publish");
      version = server.Publish(std::move(next));
    }
    const int64_t t2 = nmcdr::obs::NowNs();
    {
      std::lock_guard<std::mutex> lock(version_mu);
      version_snapshot.resize(std::max<size_t>(version_snapshot.size(),
                                               static_cast<size_t>(version) + 1),
                              -1);
      version_snapshot[version] = next_snapshot;
    }
    current_version.store(version);
    publishes.push_back({t0, t2, static_cast<double>(t1 - t0) * 1e-6,
                         static_cast<double>(t2 - t1) * 1e-3});
  };

  // The main thread switches tracing and obs profiling on for the traced
  // windows and the publish phase, samples the drainer count every
  // millisecond of the traced run's measuring windows and publishes on
  // schedule in its publish phase; otherwise it sleeps.
  const int64_t windows_end_ns = origin_ns + windows * window_len_ns;
  const int64_t end_ns = windows_end_ns + (args.trace ? window_len_ns : 0);
  const int64_t publish_ns = static_cast<int64_t>(kPublishIntervalS * 1e9);
  int64_t next_publish = args.trace ? windows_end_ns : end_ns;
  for (;;) {
    const int64_t now = nmcdr::obs::NowNs();
    if (now >= end_ns) break;
    const int w = now < origin_ns ? -1
                                  : static_cast<int>((now - origin_ns) / window_len_ns);
    const bool traced = w >= windows || (w >= 0 && traced_window(w));
    if (traced != tracer.active()) {
      tracer.SetActive(traced);
      nmcdr::obs::SetProfilingEnabled(traced);
    }
    if (now >= next_publish) {
      publish_one();
      next_publish += publish_ns;
    }
    int64_t wake = std::min(end_ns, next_publish);
    if (w < 0) wake = std::min(wake, origin_ns);
    if (w >= 0 && w + 1 <= windows) {
      wake = std::min(wake, origin_ns + (w + 1) * window_len_ns);
    }
    if (args.trace && w >= 0 && w < windows) {
      drainers.push_back(server.active_drainers());
      wake = std::min(wake, nmcdr::obs::NowNs() + 1000000);
    }
    const int64_t nap = wake - nmcdr::obs::NowNs();
    if (nap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  tracer.SetActive(false);
  nmcdr::obs::SetProfilingEnabled(false);

  // Correctness: every response kOk, no response from a version older
  // than the one current at submit, and the sampled responses pass the
  // top-K reference check (cold-start requests included).
  int64_t attempted = 0, failed = 0, stale = 0;
  int64_t checked = 0, cold_checked = 0, check_failed = 0;
  for (const ClientLog& log : logs) {
    attempted += log.attempted;
    failed += log.failed;
    stale += log.stale_versions;
  }
  for (int c = 0; c < args.clients; ++c) {
    for (const Sample& s : logs[c].samples) {
      const RecRequest& r = requests[c][s.request];
      const int64_t version = s.response.snapshot_version;
      const int snap_index =
          version > 0 && version < static_cast<int64_t>(version_snapshot.size())
              ? version_snapshot[version]
              : -1;
      if (snap_index < 0) {
        ++check_failed;
        report->Fail("response names unknown snapshot version " +
                     std::to_string(version));
        continue;
      }
      const ModelSnapshot& snap = *served.snapshots[snap_index];
      bool cold = false;
      const std::vector<float> reference = ReferenceScores(snap, r, &cold);
      const std::string fault = CheckTopK(snap, r, s.response.rec, reference, cold);
      ++checked;
      cold_checked += cold ? 1 : 0;
      if (!fault.empty()) {
        ++check_failed;
        if (check_failed <= 5) report->Fail("top-K check: " + fault);
      }
    }
  }
  report->Phase("serve.requests", attempted, failed);
  report->Phase("serve.reference_checks", checked, check_failed);
  report->Phase("serve.publishes", static_cast<int64_t>(publishes.size()), 0);
  if (failed > 0) {
    report->Fail(std::to_string(failed) + " responses were not kOk");
  }
  if (stale > 0) {
    report->Fail(std::to_string(stale) +
                 " responses came from a version older than the one current "
                 "at submit");
  }
  if (cold_checked == 0 || cold_checked == checked) {
    report->Fail("the checked sample lacks cold-start or warm requests");
  }
  report->Note("checked", std::to_string(checked) + " responses (" +
                              std::to_string(cold_checked) + " cold-start)");

  std::vector<double> window_rate(windows, 0.0);
  std::vector<double> slice_rate(kSlices, 0.0);
  std::vector<double> latency_ms, block_tails;
  size_t block = 0;
  double block_percentile = 0;
  for (const ClientLog& log : logs) {
    for (int w = 0; w < windows; ++w) {
      window_rate[w] += static_cast<double>(log.per_window[w]) /
                        (static_cast<double>(window_len_ns) * 1e-9);
    }
    for (int sl = 0; sl < kSlices; ++sl) {
      slice_rate[sl] += static_cast<double>(log.per_slice[sl]) * kSlices /
                        (static_cast<double>(window_len_ns) * 1e-9);
    }
    // Each client's latencies are in its own completion order.
    const std::vector<double> mine(log.latency_ms.begin(), log.latency_ms.end());
    latency_ms.insert(latency_ms.end(), mine.begin(), mine.end());
    const BlockTails t = BlockTailsOf(mine);
    block_tails.insert(block_tails.end(), t.tails.begin(), t.tails.end());
    block = t.block;
    block_percentile = t.percentile;
  }

  if (!args.trace) {
    report->Note("tail_ms", "median of " + std::to_string(block_tails.size()) +
                                " per-client blocks of " + std::to_string(block) +
                                " requests, each block's p" +
                                std::to_string(static_cast<int>(block_percentile)));
    report->Note("set-ups (ms)", MillisecondsList(setup_s));
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report->Metric("throughput_per_s", Median(slice_rate), "1/s");
    report->Metric("p50_ms", Median(latency_ms), "ms");
    report->Metric("tail_ms", Median(block_tails), "ms");
    server.Stop();
    return;
  }

  LayerValues layers;
  std::vector<double> server_ms, handoff_us, submit_us, during_publish_ms;
  for (const ClientLog& log : logs) {
    for (const Done& d : log.done) {
      const double ms = static_cast<double>(d.end_ns - d.start_ns) * 1e-6;
      const int w = window_of(d.start_ns, d.end_ns);
      if (w >= 0 && traced_window(w)) {
        submit_us.push_back(d.submit_us);
        server_ms.push_back(d.server_ms);
        handoff_us.push_back((ms - d.server_ms) * 1e3);
      }
      for (const PublishLog& p : publishes) {
        if (d.start_ns < p.end_ns && d.end_ns > p.start_ns) {
          during_publish_ms.push_back(ms);
          break;
        }
      }
    }
  }
  layers["cluster.submit_us"] = Median(submit_us);
  layers["cluster.server_ms"] = Median(server_ms);
  layers["cluster.handoff_us"] = Median(handoff_us);
  double drainer_sum = 0;
  for (double d : drainers) drainer_sum += d;
  layers["cluster.active_drainers_mean"] =
      drainers.empty() ? 0.0 : drainer_sum / static_cast<double>(drainers.size());
  layers["trace.overhead_pct"] =
      ((window_rate[0] + window_rate[2]) / (window_rate[1] + window_rate[3]) -
       1.0) * 100.0;
  server.Stop();

  tracer.SetActive(true);
  std::vector<RecRequest> probe_requests(requests[0].begin(),
                                         requests[0].begin() + 64);
  ProbeServingLayers(base, probe_requests, kShards, &tracer, &layers);
  {
    // The publish phase's live publishes, which compete with the reads.
    std::vector<double> publish_ms, build_ms, publish_us;
    for (const PublishLog& p : publishes) {
      publish_ms.push_back(static_cast<double>(p.end_ns - p.start_ns) * 1e-6);
      build_ms.push_back(p.build_ms);
      publish_us.push_back(p.publish_us);
    }
    layers["cluster.publish_ms"] = Median(publish_ms);
    layers["sharded.build_ms"] = Median(build_ms);
    layers["registry.publish_us"] = Median(publish_us);
    layers["cluster.during_publish_p50_ms"] = Median(during_publish_ms);
  }
  tracer.SetActive(false);
  ReportLayers(layers, tracer, args.trace_out, report);
}

}  // namespace perfbench
