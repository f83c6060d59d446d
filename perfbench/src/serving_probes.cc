// Request generation and the direct serving-layer probes shared by every
// workload, plus the per-layer metric table.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>

#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/scoring_kernels.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using nmcdr::ModelSnapshot;
using nmcdr::RecRequest;

const std::vector<LayerMetric>& PerLayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"data.scenario_s", "s"},
      {"core.model_init_s", "s"},
      {"graph.batch_draw_ms", "ms"},
      {"program.record_ms", "ms"},
      {"core.train_step_ms", "ms"},
      {"tensor.kernel_ms_per_step", "ms"},
      {"core.step_self_ms", "ms"},
      {"tensor.kernel_calls_per_step", "count"},
      {"tensor.gemm_calls_per_step", "count"},
      {"tensor.axpy_calls_per_step", "count"},
      {"tensor.mflop_per_step", "Mflop"},
      {"tensor.gemm_gflops", "GFLOP/s"},
      {"autograd.forward_ms_per_step", "ms"},
      {"autograd.backward_ms_per_step", "ms"},
      {"program.arena_peak_mb", "MiB"},
      {"train.cell_s", "s"},
      {"eval.evaluate_s", "s"},
      {"eval.pairs_per_s", "1/s"},
      {"eval.hr10_pct", "%"},
      {"eval.ndcg10_pct", "%"},
      {"serving.freeze_ms", "ms"},
      {"cluster.submit_us", "us"},
      {"cluster.server_ms", "ms"},
      {"cluster.handoff_us", "us"},
      {"cluster.active_drainers_mean", "count"},
      {"cluster.publish_ms", "ms"},
      {"cluster.during_publish_p50_ms", "ms"},
      {"pool.parallel_for_us", "us"},
      {"sharded.topk_ms", "ms"},
      {"engine.topk_ms", "ms"},
      {"scoring.ns_per_pair", "ns"},
      {"sharded.build_ms", "ms"},
      {"registry.publish_us", "us"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  return metrics;
}

std::vector<RecRequest> MakeRequests(const ModelSnapshot& snapshot, int count,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x1234);
  auto uniform = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  const int domains = snapshot.num_domains();
  std::vector<RecRequest> requests;
  requests.reserve(count);
  for (int i = 0; i < count; ++i) {
    RecRequest r;
    r.target_domain = i % domains;
    r.user_domain =
        i % 3 == 0 ? (r.target_domain + 1) % domains : r.target_domain;
    r.user = uniform(snapshot.domain(r.user_domain).num_users());
    const int items = snapshot.domain(r.target_domain).num_items();
    while (static_cast<int>(r.exclude.size()) < kExcludedPerRequest) {
      const int item = uniform(items);
      if (std::find(r.exclude.begin(), r.exclude.end(), item) ==
          r.exclude.end()) {
        r.exclude.push_back(item);
      }
    }
    r.k = 10;
    requests.push_back(std::move(r));
  }
  return requests;
}

void ProbeServingLayers(const ModelSnapshot& snapshot,
                        const std::vector<RecRequest>& requests, int shards,
                        Tracer* tracer, LayerValues* layers) {
  namespace cl = nmcdr::cluster;
  const cl::ShardLayout layout = cl::ShardLayout::Uniform(snapshot, shards);
  std::vector<double> build_ms;
  std::unique_ptr<cl::ShardedSnapshot> sharded;
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(tracer, "sharded.build");
    const double t0 = NowSeconds();
    sharded = std::make_unique<cl::ShardedSnapshot>(snapshot, layout);
    build_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  (*layers)["sharded.build_ms"] = Median(build_ms);

  const nmcdr::ScoreEngine engine(&snapshot);
  cl::ShardScratch shard_scratch;
  nmcdr::ScoreScratch engine_scratch;
  std::vector<double> sharded_ms, engine_ms;
  for (int pass = 0; pass < 2; ++pass) {  // first pass warms the caches
    for (size_t i = 0; i < requests.size(); ++i) {
      const RecRequest& r = requests[i];
      double t0 = NowSeconds();
      {
        ScopedSpan span(tracer, "sharded.topk", static_cast<int64_t>(i));
        sharded->TopKWithScratch(r, &shard_scratch);
      }
      double t1 = NowSeconds();
      if (pass == 1) sharded_ms.push_back((t1 - t0) * 1e3);
      {
        ScopedSpan span(tracer, "engine.topk", static_cast<int64_t>(i));
        engine.TopKWithScratch(r, &engine_scratch);
      }
      if (pass == 1) engine_ms.push_back((NowSeconds() - t1) * 1e3);
    }
  }
  (*layers)["sharded.topk_ms"] = Median(sharded_ms);
  (*layers)["engine.topk_ms"] = Median(engine_ms);

  // scoring::FastScoreIds over domain 0's whole catalog in item_block
  // blocks, for the first request's user row of that domain.
  const nmcdr::FrozenDomainState& dom = snapshot.domain(0).frozen;
  const nmcdr::Matrix item_first =
      nmcdr::scoring::BuildItemFirst(dom.head, dom.item_reps);
  const int width = nmcdr::scoring::MaxHeadWidth(dom.head);
  std::vector<float> u_first(dom.head.b0.cols()), h(width), next(width);
  const int n = dom.num_items();
  std::vector<int> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  std::vector<float> out(n);
  const int block = nmcdr::ScoreEngine::Options().item_block;
  std::vector<double> ns_per_pair;
  for (int rep = 0; rep < 16; ++rep) {
    const float* u = dom.user_reps.row(rep % dom.num_users());
    ScopedSpan span(tracer, "scoring.fast_score_ids");
    const double t0 = NowSeconds();
    nmcdr::scoring::UserFirstPartial(dom.head, u, u_first.data());
    for (int b = 0; b < n; b += block) {
      nmcdr::scoring::FastScoreIds(dom.head, dom.item_reps, item_first, u,
                                   u_first.data(), ids.data() + b,
                                   std::min(block, n - b), h.data(),
                                   next.data(), out.data() + b);
    }
    ns_per_pair.push_back((NowSeconds() - t0) * 1e9 / n);
  }
  (*layers)["scoring.ns_per_pair"] = Median(ns_per_pair);

  nmcdr::ThreadPool* pool = nmcdr::ThreadPool::Shared();
  std::vector<double> pf_us;
  for (int i = 0; i < 2000; ++i) {
    ScopedSpan span(tracer, "pool.parallel_for");
    const double t0 = NowSeconds();
    pool->ParallelFor(0, pool->num_threads(), 1, [](int64_t, int64_t) {});
    pf_us.push_back((NowSeconds() - t0) * 1e6);
  }
  (*layers)["pool.parallel_for_us"] = Median(pf_us);
}

void ReportLayers(const LayerValues& layers, const Tracer& tracer,
                  const std::string& trace_out, Report* report) {
  const std::map<std::string, Tracer::SelfTime> self = tracer.SelfTimes();
  std::fprintf(stderr, "  span self times (traced windows):\n");
  for (const auto& [name, t] : self) {
    std::fprintf(stderr, "    %-28s n %8lld  total %10.4f s  self %10.4f s\n",
                 name.c_str(), static_cast<long long>(t.count), t.total_s,
                 t.self_s);
  }
  LayerValues values = layers;
  values["trace.spans"] = static_cast<double>(tracer.span_count());
  for (const LayerMetric& m : PerLayerMetrics()) {
    const auto it = values.find(m.name);
    report->Metric(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
  if (!trace_out.empty()) {
    if (tracer.WriteChromeTrace(trace_out)) {
      report->Note("trace", trace_out);
    } else {
      report->Fail("cannot write trace " + trace_out);
    }
  }
}

}  // namespace perfbench
