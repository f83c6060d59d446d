#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "tracer.h"

namespace perfbench {

/// Per-layer values a traced run measured, by metric name. Metrics a
/// workload does not exercise stay absent and are reported as 0.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric with its unit, in report order (BENCHMARK.json
/// lists the same names).
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& PerLayerMetrics();

/// Target items each request excludes (standing in for items the user has
/// already seen). The repository's serving benches send no exclusions, so
/// this count is an assumption of the benchmark.
constexpr int kExcludedPerRequest = 10;

/// Makes `count` top-10 requests against `snapshot` with the request mix of
/// bench/bench_cluster.cpp and examples/online_serving.cpp: one request in
/// three is cross-domain (the user's home domain is the other one), the
/// user is drawn uniformly, and the target domain alternates. A
/// cross-domain user without an identity link in the target domain is
/// served cold-start, so the cold-start share follows from the snapshot's
/// overlap. Each request excludes kExcludedPerRequest distinct target
/// items. A pure function of `seed`.
std::vector<nmcdr::RecRequest> MakeRequests(
    const nmcdr::ModelSnapshot& snapshot, int count, uint64_t seed);

/// Times the serving layers below the server directly on `snapshot` with
/// `requests`: ShardedSnapshot build and TopKWithScratch over `shards`
/// shards, monolithic ScoreEngine::TopKWithScratch (kFast), one
/// scoring::FastScoreIds pass over a catalog, and an empty
/// ThreadPool::ParallelFor across the shared pool.
void ProbeServingLayers(const nmcdr::ModelSnapshot& snapshot,
                        const std::vector<nmcdr::RecRequest>& requests,
                        int shards, Tracer* tracer, LayerValues* layers);

void RunTrainWorkload(const RunArgs& args, Report* report);
void RunServeWorkload(const RunArgs& args, Report* report);
/// Plants each kind of wrong top-K answer and checks the reference
/// checker catches it (and accepts the right answer).
void RunCheckerSelfTest(const RunArgs& args, Report* report);

/// Adds every per-layer metric to the report (0 where absent), prints the
/// span self times on stderr and writes the trace to `trace_out`.
void ReportLayers(const LayerValues& layers, const Tracer& tracer,
                  const std::string& trace_out, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
