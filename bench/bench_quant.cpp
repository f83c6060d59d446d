// Quantized-serving accuracy and throughput report: measures the int8
// per-row affine scoring path (ScoreEngine::Mode::kQuantized,
// serving/quantized_snapshot.h) against the bit-exact fp engine on two
// fixtures — a trained-and-frozen LoanFund snapshot (real table
// statistics) and a synthetic serving-scale catalog — and hard-fails when
// ranking agreement drops below the release floor.
//
// Metrics, per fixture and aggregated for the CI gate:
//   overlap@K   mean |exact-topK ∩ quant-topK| / K over sampled users
//   HR@10 delta 1 - fraction of users whose exact top-1 survives in the
//               quantized top-10 (the exact ranking is the ground truth,
//               so the fp engine's own HR@10 is 1 by construction)
//   NDCG@10 delta  1 - mean DCG position credit of the exact top-1 inside
//               the quantized top-10 (1/log2(rank+2), 0 when evicted)
// plus quantized retrieval throughput relative to the exact and fast fp
// modes on the synthetic fixture, and (informational, never gated) each
// mode's top-10 retrieval nanoseconds per scored pair there.
//
// Writes BENCH_quant.json (the "quant" block is what
// scripts/check_bench_regression.py gates: absolute overlap floors plus
// baseline trajectory). `--smoke` shrinks both fixtures so the binary
// doubles as a CTest; the in-binary floor loosens with it because tiny
// catalogs concentrate near-ties inside the top-K.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/nmcdr_model.h"
#include "data/presets.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "train/experiment.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace nmcdr {
namespace {

/// Ranking-agreement metrics of one engine pair on one fixture.
struct AgreementResult {
  std::string name;
  int users_measured = 0;
  double overlap_at_10 = 0.0;
  double overlap_at_50 = 0.0;
  double hr10_delta = 0.0;
  double ndcg10_delta = 0.0;
};

/// Position of `item` in `items`, or -1.
int RankOf(const std::vector<int>& items, int item) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i] == item) return static_cast<int>(i);
  }
  return -1;
}

double OverlapAtK(const std::vector<int>& exact_items,
                  const std::vector<int>& quant_items, int k) {
  // A catalog smaller than k returns short lists; overlap is measured
  // over the items actually rankable, not the nominal k.
  const int n = k < static_cast<int>(exact_items.size())
                    ? k
                    : static_cast<int>(exact_items.size());
  if (n == 0) return 1.0;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (RankOf(quant_items, exact_items[i]) >= 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

/// Runs top-50 retrieval for `users_per_domain` users of every domain
/// through both engines and accumulates the agreement metrics. The exact
/// engine's ranking is the ground truth; its top-1 is the "relevant" item
/// of the HR/NDCG deltas.
AgreementResult MeasureAgreement(const std::string& name,
                                 const ScoreEngine& exact,
                                 const ScoreEngine& quant,
                                 int users_per_domain) {
  AgreementResult result;
  result.name = name;
  double overlap10 = 0.0, overlap50 = 0.0, hr10 = 0.0, ndcg10 = 0.0;
  for (int d = 0; d < exact.snapshot().num_domains(); ++d) {
    const int num_users = exact.snapshot().domain(d).num_users();
    const int sample = users_per_domain < num_users ? users_per_domain
                                                    : num_users;
    for (int u = 0; u < sample; ++u) {
      RecRequest request;
      request.target_domain = d;
      request.user_domain = d;
      request.user = u;
      request.k = 50;
      const Recommendation want = exact.TopK(request);
      const Recommendation got = quant.TopK(request);
      overlap10 += OverlapAtK(want.items, got.items, 10);
      overlap50 += OverlapAtK(want.items, got.items, 50);
      const int rank = want.items.empty()
                           ? -1
                           : RankOf(got.items, want.items.front());
      if (rank >= 0 && rank < 10) {
        hr10 += 1.0;
        ndcg10 += 1.0 / std::log2(static_cast<double>(rank) + 2.0);
      }
      ++result.users_measured;
    }
  }
  const double n = static_cast<double>(result.users_measured);
  result.overlap_at_10 = overlap10 / n;
  result.overlap_at_50 = overlap50 / n;
  result.hr10_delta = 1.0 - hr10 / n;
  result.ndcg10_delta = 1.0 - ndcg10 / n;
  return result;
}

/// Full-catalog top-10 retrieval through one engine: requests/second and
/// wall nanoseconds per candidate scored (scoring plus heap selection,
/// divided by the engine's exact pairs-scored count).
struct Throughput {
  double req_per_s = 0.0;
  double ns_per_pair = 0.0;
};

/// Times top-10 retrieval round-robin over domain-0 users
/// (allocation-free scratch core, the drainer configuration).
Throughput TopKThroughput(const ScoreEngine& engine, double min_seconds) {
  const int num_users = engine.snapshot().domain(0).num_users();
  ScoreScratch scratch;
  RecRequest request;
  request.k = 10;
  engine.TopKWithScratch(request, &scratch);  // warm-up (grows scratch)
  const int64_t pairs_before = engine.counters().pairs_scored;
  Stopwatch timer;
  int64_t requests = 0;
  do {
    request.user = static_cast<int>(requests % num_users);
    engine.TopKWithScratch(request, &scratch);
    ++requests;
  } while (timer.ElapsedSeconds() < min_seconds);
  const double seconds = timer.ElapsedSeconds();
  const int64_t pairs = engine.counters().pairs_scored - pairs_before;
  Throughput t;
  t.req_per_s = static_cast<double>(requests) / seconds;
  t.ns_per_pair = seconds * 1e9 / static_cast<double>(pairs);
  return t;
}

void WriteJson(const std::string& path,
               const std::vector<AgreementResult>& sections,
               const AgreementResult& gate, const Throughput& exact,
               const Throughput& fast, const Throughput& quant, bool smoke) {
  std::ofstream out(path);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  out << "{\n";
  out << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  out << "  \"quant\": {\n";
  out << "    \"overlap_at_10\": " << FormatFloat(gate.overlap_at_10, 5)
      << ",\n";
  out << "    \"overlap_at_50\": " << FormatFloat(gate.overlap_at_50, 5)
      << ",\n";
  out << "    \"hr10_delta\": " << FormatFloat(gate.hr10_delta, 5) << ",\n";
  out << "    \"ndcg10_delta\": " << FormatFloat(gate.ndcg10_delta, 5)
      << ",\n";
  out << "    \"speedup_vs_exact\": "
      << FormatFloat(quant.req_per_s / exact.req_per_s, 3) << ",\n";
  out << "    \"speedup_vs_fast\": "
      << FormatFloat(quant.req_per_s / fast.req_per_s, 3) << "\n  },\n";
  // Informational, never gated: top-10 retrieval cost per scored pair on
  // the synthetic fixture, per scoring mode.
  out << "  \"ns_per_pair\": {\"exact\": " << FormatFloat(exact.ns_per_pair, 2)
      << ", \"fast\": " << FormatFloat(fast.ns_per_pair, 2)
      << ", \"quantized\": " << FormatFloat(quant.ns_per_pair, 2)
      << "},\n";
  out << "  \"sections\": [\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    const AgreementResult& r = sections[i];
    out << "    {\"name\": \"" << r.name
        << "\", \"users\": " << r.users_measured
        << ", \"overlap_at_10\": " << FormatFloat(r.overlap_at_10, 5)
        << ", \"overlap_at_50\": " << FormatFloat(r.overlap_at_50, 5)
        << ", \"hr10_delta\": " << FormatFloat(r.hr10_delta, 5)
        << ", \"ndcg10_delta\": " << FormatFloat(r.ndcg10_delta, 5) << "}"
        << (i + 1 < sections.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

int Run(bool smoke) {
  std::printf("bench_quant (%s)\n", smoke ? "smoke" : "full");
  const BenchScale scale = smoke ? BenchScale::kSmoke : BenchScale::kFull;
  std::vector<AgreementResult> sections;

  // Fixture 1: a trained-and-frozen model — quantization fidelity on real
  // (post-training) table statistics, not just random draws.
  {
    ExperimentData data(GenerateScenario(LoanFundSpec(scale)), /*seed=*/17);
    NmcdrConfig config;
    config.hidden_dim = smoke ? 8 : 16;
    NmcdrModel model(data.View(), config, /*seed=*/42, 1e-3f);
    Trainer trainer(data.View(), bench::DefaultTrainConfig(scale));
    trainer.Train(&model);
    ModelSnapshot snapshot;
    if (!ModelSnapshot::FreezePair(&model, data.scenario(), &snapshot)) {
      std::fprintf(stderr, "freeze failed\n");
      return 1;
    }
    ScoreEngine exact(&snapshot, {ScoreEngine::Mode::kExact, 256});
    ScoreEngine quant(&snapshot, {ScoreEngine::Mode::kQuantized, 256});
    sections.push_back(MeasureAgreement("trained (LoanFund)", exact, quant,
                                        smoke ? 100 : 400));
  }

  // Fixture 2: a synthetic serving-scale catalog — the overlap gate at
  // production-like item counts, plus the throughput comparison.
  Throughput exact_tp, fast_tp, quant_tp;
  {
    SyntheticSnapshotSpec spec;
    spec.num_domains = 2;
    spec.users_per_domain = smoke ? 500 : 5000;
    spec.items_per_domain = smoke ? 2000 : 20000;
    spec.dim = 16;
    spec.hidden = 16;
    spec.overlap = 0.2f;
    spec.seed = 23;
    const ModelSnapshot snapshot = ModelSnapshot::MakeSynthetic(spec);
    ScoreEngine exact(&snapshot, {ScoreEngine::Mode::kExact, 256});
    ScoreEngine fast(&snapshot, {ScoreEngine::Mode::kFast, 256});
    ScoreEngine quant(&snapshot, {ScoreEngine::Mode::kQuantized, 256});
    sections.push_back(MeasureAgreement("synthetic catalog", exact, quant,
                                        smoke ? 50 : 200));
    const double min_seconds = smoke ? 0.05 : 0.5;
    exact_tp = TopKThroughput(exact, min_seconds);
    fast_tp = TopKThroughput(fast, min_seconds);
    quant_tp = TopKThroughput(quant, min_seconds);
    std::printf(
        "\nTop-10 retrieval throughput (req/s): exact %.0f, fast %.0f, "
        "quantized %.0f\n"
        "Top-10 retrieval ns per scored pair: exact %.1f, fast %.1f, "
        "quantized %.1f\n",
        exact_tp.req_per_s, fast_tp.req_per_s, quant_tp.req_per_s,
        exact_tp.ns_per_pair, fast_tp.ns_per_pair, quant_tp.ns_per_pair);
  }

  // The gated aggregate: worst agreement across fixtures.
  AgreementResult gate;
  gate.name = "aggregate (worst section)";
  gate.overlap_at_10 = 1.0;
  gate.overlap_at_50 = 1.0;
  for (const AgreementResult& r : sections) {
    if (r.overlap_at_10 < gate.overlap_at_10) {
      gate.overlap_at_10 = r.overlap_at_10;
    }
    if (r.overlap_at_50 < gate.overlap_at_50) {
      gate.overlap_at_50 = r.overlap_at_50;
    }
    if (r.hr10_delta > gate.hr10_delta) gate.hr10_delta = r.hr10_delta;
    if (r.ndcg10_delta > gate.ndcg10_delta) {
      gate.ndcg10_delta = r.ndcg10_delta;
    }
    gate.users_measured += r.users_measured;
  }

  TablePrinter table;
  table.SetHeader({"Fixture", "Users", "overlap@10", "overlap@50",
                   "HR@10 delta", "NDCG@10 delta"});
  for (const AgreementResult& r : sections) {
    table.AddRow({r.name, std::to_string(r.users_measured),
                  FormatFloat(r.overlap_at_10, 4),
                  FormatFloat(r.overlap_at_50, 4),
                  FormatFloat(r.hr10_delta, 4),
                  FormatFloat(r.ndcg10_delta, 4)});
  }
  table.AddRow({gate.name, std::to_string(gate.users_measured),
                FormatFloat(gate.overlap_at_10, 4),
                FormatFloat(gate.overlap_at_50, 4),
                FormatFloat(gate.hr10_delta, 4),
                FormatFloat(gate.ndcg10_delta, 4)});
  std::printf("\nQuantized vs fp-exact ranking agreement\n%s",
              table.ToString().c_str());

  WriteJson("BENCH_quant.json", sections, gate, exact_tp, fast_tp, quant_tp,
            smoke);

  // The release floor: full-scale runs must keep the quantized top-10
  // essentially identical to fp; smoke fixtures are tiny (near-ties crowd
  // the top-K), so the CTest floor is looser but still catches any real
  // quantizer break.
  const double floor10 = smoke ? 0.90 : 0.99;
  const double floor50 = smoke ? 0.85 : 0.98;
  if (gate.overlap_at_10 < floor10 || gate.overlap_at_50 < floor50) {
    std::fprintf(stderr,
                 "FAIL: quantized overlap@10 %.4f / overlap@50 %.4f below "
                 "floors %.2f / %.2f\n",
                 gate.overlap_at_10, gate.overlap_at_50, floor10, floor50);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nmcdr

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nmcdr::Run(smoke);
}
