// train_music_movie: NMCDR on the Music-Movie preset at the default
// configuration. Each cell trains a fresh model with Trainer::Train for a
// fixed number of epochs, evaluates the test split and freezes the pair —
// one cell of Tables II-V. The model's own shapes (D=16, batch 256) load
// the tensor, program, autograd, core, graph and eval layers; serving is
// probed only directly, on the frozen snapshot, in the traced run.

#include <cmath>
#include <cstring>
#include <memory>

#include "data/presets.h"
#include "graph/sampling.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "program/program.h"
#include "train/experiment.h"
#include "train/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

using nmcdr::DomainSide;
using nmcdr::LabeledBatch;

/// Epochs per cell. With the default TrainConfig this is ~150 steps, enough
/// for test HR@10 well above chance in both domains.
constexpr int kEpochs = 2;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 25;
/// HR@10 must exceed the chance level 10 / (1 + num_negatives) by this
/// factor in both domains.
constexpr double kChanceMargin = 2.0;

/// Forwards every call to the trained model and logs each TrainStep's
/// loss and wall time; the benchmark's only view into Trainer::Train.
/// With `profile`, obs profiling is on around each replayed step and off
/// everywhere else, so the kernel and op tables hold training steps only
/// (not the trainer's validation passes, the test evaluation or the
/// freeze).
class StepLog final : public nmcdr::RecModel {
 public:
  struct Step {
    float loss;
    double seconds;
  };

  StepLog(nmcdr::RecModel* inner, Tracer* tracer, bool profile)
      : inner_(inner), tracer_(tracer), profile_(profile) {
    steps_.reserve(4096);
  }

  std::string name() const override { return inner_->name(); }
  float TrainStep(const LabeledBatch& z, const LabeledBatch& zbar) override {
    ScopedSpan span(tracer_, "core.train_step");
    // The first step of a Train call records and compiles the program.
    const bool profile = profile_ && !steps_.empty();
    if (profile) nmcdr::obs::SetProfilingEnabled(true);
    const double t0 = NowSeconds();
    const float loss = inner_->TrainStep(z, zbar);
    const double seconds = NowSeconds() - t0;
    if (profile) {
      nmcdr::obs::SetProfilingEnabled(false);
      ++profiled_steps_;
    }
    steps_.push_back({loss, seconds});
    return loss;
  }
  std::vector<float> Score(DomainSide side, const std::vector<int>& users,
                           const std::vector<int>& items) override {
    return inner_->Score(side, users, items);
  }
  nmcdr::ag::ParameterStore* params() override { return inner_->params(); }
  void InvalidateCaches() override { inner_->InvalidateCaches(); }
  bool FreezeDomain(DomainSide side, nmcdr::FrozenDomainState* out) override {
    return inner_->FreezeDomain(side, out);
  }

  const std::vector<Step>& steps() const { return steps_; }
  int64_t profiled_steps() const { return profiled_steps_; }

 private:
  nmcdr::RecModel* inner_;
  Tracer* tracer_;
  const bool profile_;
  std::vector<Step> steps_;
  int64_t profiled_steps_ = 0;
};

struct Setup {
  std::unique_ptr<nmcdr::ExperimentData> data;
  std::unique_ptr<nmcdr::RecModel> model;
  double scenario_s = 0.0;
  double model_init_s = 0.0;
};

std::unique_ptr<nmcdr::RecModel> MakeModel(const nmcdr::ExperimentData& data,
                                          uint64_t seed) {
  nmcdr::CommonHyper hyper;
  hyper.seed = seed;
  return nmcdr::ModelRegistry::Instance().Get("NMCDR")(
      data.View(), hyper, nmcdr::TrainConfig().learning_rate);
}

// The Music-Movie preset keeps its own generator seed, so every run trains
// on the same interaction graph and a step costs the same whatever the
// seed; --seed picks the leave-one-out split, the model initialisation and
// the trainer's sampling stream.
Setup BuildSetup(uint64_t seed) {
  Setup s;
  const double t0 = NowSeconds();
  s.data = std::make_unique<nmcdr::ExperimentData>(
      nmcdr::GenerateScenario(nmcdr::MusicMovieSpec(nmcdr::BenchScale::kSmall)),
      seed);
  const double t1 = NowSeconds();
  s.model = MakeModel(*s.data, seed);
  s.scenario_s = t1 - t0;
  s.model_init_s = NowSeconds() - t1;
  return s;
}

/// Kernel and op table totals read from the obs:: snapshots.
struct ProfileTotals {
  double kernel_ns = 0, kernel_calls = 0, flops = 0;
  double gemm_calls = 0, gemm_flops = 0, gemm_ns = 0, axpy_calls = 0;
  double forward_ns = 0, backward_ns = 0;

  void AddSnapshot() {
    for (const nmcdr::obs::KernelStatsRow& row :
         nmcdr::obs::SnapshotKernelStats()) {
      const std::string name = nmcdr::obs::KernelName(row.kernel);
      kernel_ns += static_cast<double>(row.ns);
      kernel_calls += static_cast<double>(row.calls);
      flops += static_cast<double>(row.flops);
      if (name.find("MatMul") != std::string::npos) {
        gemm_calls += static_cast<double>(row.calls);
        gemm_flops += static_cast<double>(row.flops);
        gemm_ns += static_cast<double>(row.ns);
      }
      if (name.find("Axpy") != std::string::npos) {
        axpy_calls += static_cast<double>(row.calls);
      }
    }
    for (const nmcdr::obs::OpStatsRow& row : nmcdr::obs::SnapshotOpStats()) {
      forward_ns += static_cast<double>(row.forward_ns);
      backward_ns += static_cast<double>(row.backward_ns);
    }
  }
};

/// Replicates the trainer's batch draw (positives from the train split,
/// NegativeSampler negatives) through public calls, for the graph layer's
/// per-step cost and for the recorded program below.
LabeledBatch DrawBatch(const nmcdr::DomainSplit& split,
                       const nmcdr::NegativeSampler& sampler, size_t* cursor,
                       nmcdr::Rng* rng) {
  const nmcdr::TrainConfig config;
  const int negs = config.negatives_per_positive;
  const int positives = std::max(1, config.batch_size / (1 + negs));
  LabeledBatch batch;
  batch.users.reserve(positives * (1 + negs));
  batch.items.reserve(positives * (1 + negs));
  batch.labels.reserve(positives * (1 + negs));
  for (int i = 0; i < positives; ++i) {
    const nmcdr::Interaction pos = split.train[*cursor % split.train.size()];
    ++*cursor;
    batch.users.push_back(pos.user);
    batch.items.push_back(pos.item);
    batch.labels.push_back(1.f);
    for (int n = 0; n < negs; ++n) {
      batch.users.push_back(pos.user);
      batch.items.push_back(sampler.SampleNegative(pos.user, rng));
      batch.labels.push_back(0.f);
    }
  }
  return batch;
}

void ProbeGraphAndProgram(const nmcdr::ExperimentData& data, uint64_t seed,
                          Tracer* tracer, LayerValues* layers) {
  const nmcdr::NegativeSampler sz(&data.train_graph_z());
  const nmcdr::NegativeSampler szbar(&data.train_graph_zbar());
  nmcdr::Rng rng(seed);
  size_t cz = 0, czbar = 0;
  std::vector<double> draw_ms;
  LabeledBatch bz, bzbar;
  for (int i = 0; i < 200; ++i) {
    ScopedSpan span(tracer, "graph.batch_draw");
    const double t0 = NowSeconds();
    bz = DrawBatch(data.split_z(), sz, &cz, &rng);
    bzbar = DrawBatch(data.split_zbar(), szbar, &czbar, &rng);
    draw_ms.push_back((NowSeconds() - t0) * 1e3);
  }
  (*layers)["graph.batch_draw_ms"] = Median(draw_ms);

  std::unique_ptr<nmcdr::RecModel> model = MakeModel(data, seed);
  nmcdr::prog::GraphProgram program;
  const double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "program.record");
    nmcdr::prog::GraphProgram::RecordScope record(&program);
    model->TrainStep(bz, bzbar);
  }
  (*layers)["program.record_ms"] = (NowSeconds() - t0) * 1e3;
  for (int i = 0; i < 10 && program.usable(); ++i) {
    nmcdr::prog::GraphProgram::ReplayScope replay(&program);
    model->TrainStep(bz, bzbar);
  }
  (*layers)["program.arena_peak_mb"] =
      static_cast<double>(program.stats().arena_peak_bytes) / (1 << 20);
}

/// Bitwise FrozenDomainState::Score == RecModel::Score on sampled pairs.
bool FrozenScoresMatch(nmcdr::RecModel* model,
                       const nmcdr::ModelSnapshot& snapshot, uint64_t seed) {
  nmcdr::Rng rng(seed ^ 0x5eed);
  for (int d = 0; d < 2; ++d) {
    const nmcdr::FrozenDomainState& frozen = snapshot.domain(d).frozen;
    std::vector<int> users(512), items(512);
    for (size_t i = 0; i < users.size(); ++i) {
      users[i] = static_cast<int>(rng.UniformInt(0, frozen.num_users() - 1));
      items[i] = static_cast<int>(rng.UniformInt(0, frozen.num_items() - 1));
    }
    const std::vector<float> a = frozen.Score(users, items);
    const std::vector<float> b =
        model->Score(d == 0 ? DomainSide::kZ : DomainSide::kZbar, users, items);
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) != 0) {
      return false;
    }
  }
  return true;
}

struct CellResult {
  double train_s = 0, evaluate_s = 0, freeze_s = 0;
  int64_t steps = 0;
  int64_t profiled_steps = 0;
  std::vector<double> step_ms;
  nmcdr::ScenarioMetrics test;
  std::unique_ptr<nmcdr::ModelSnapshot> snapshot;
};

CellResult RunCell(const nmcdr::ExperimentData& data, nmcdr::RecModel* model,
                   uint64_t seed, bool profile, Tracer* tracer,
                   Report* report) {
  CellResult cell;
  ScopedSpan cell_span(tracer, "train.cell");
  StepLog logged(model, tracer, profile);
  nmcdr::TrainConfig config;
  config.epochs = kEpochs;
  config.seed = seed;
  nmcdr::Trainer trainer(data.View(), config, &data.full_graph_z(),
                         &data.full_graph_zbar());
  double t0 = NowSeconds();
  nmcdr::TrainSummary summary;
  {
    ScopedSpan span(tracer, "trainer.train");
    summary = trainer.Train(&logged);
  }
  cell.train_s = NowSeconds() - t0;

  t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "eval.evaluate");
    cell.test = nmcdr::EvaluateScenario(
        &logged, data.full_graph_z(), data.full_graph_zbar(), data.split_z(),
        data.split_zbar(), nmcdr::EvalPhase::kTest, nmcdr::EvalConfig());
  }
  cell.evaluate_s = NowSeconds() - t0;

  t0 = NowSeconds();
  cell.snapshot = std::make_unique<nmcdr::ModelSnapshot>();
  bool frozen = false;
  {
    ScopedSpan span(tracer, "serving.freeze");
    frozen = nmcdr::ModelSnapshot::FreezePair(&logged, data.scenario(),
                                              cell.snapshot.get());
  }
  cell.freeze_s = NowSeconds() - t0;

  // Checks on the cell's outputs.
  const std::vector<StepLog::Step>& steps = logged.steps();
  cell.steps = static_cast<int64_t>(steps.size());
  cell.profiled_steps = logged.profiled_steps();
  int64_t bad_steps = 0;
  for (const StepLog::Step& s : steps) {
    if (!std::isfinite(s.loss)) ++bad_steps;
    cell.step_ms.push_back(s.seconds * 1e3);
  }
  report->Phase("train.steps", cell.steps, 0);
  if (bad_steps > 0) {
    report->Fail(std::to_string(bad_steps) + " training steps had a non-finite loss");
  }
  if (summary.epochs_run != kEpochs || cell.steps % kEpochs != 0 ||
      cell.steps == 0) {
    report->Fail("trainer ran " + std::to_string(summary.epochs_run) +
                 " epochs / " + std::to_string(cell.steps) + " steps");
  } else {
    const int64_t per_epoch = cell.steps / kEpochs;
    double first = 0, last = 0;
    for (int64_t i = 0; i < per_epoch; ++i) {
      first += steps[i].loss;
      last += steps[cell.steps - per_epoch + i].loss;
    }
    if (!(last < first)) {
      report->Fail("last epoch's mean loss " + std::to_string(last / per_epoch) +
                   " is not below the first's " +
                   std::to_string(first / per_epoch));
    }
  }
  const nmcdr::EvalConfig eval;
  const double chance = 10.0 / (1.0 + eval.num_negatives);
  for (const nmcdr::RankingMetrics* m : {&cell.test.z, &cell.test.zbar}) {
    if (!(m->hr > kChanceMargin * chance)) {
      report->Fail("HR@10 " + std::to_string(m->hr) + " is not above " +
                   std::to_string(kChanceMargin) + " x chance " +
                   std::to_string(chance));
    }
    if (!(m->ndcg <= m->hr)) {
      report->Fail("NDCG@10 " + std::to_string(m->ndcg) + " exceeds HR@10 " +
                   std::to_string(m->hr));
    }
  }
  report->Phase("eval.evaluate", 1, 0);
  report->Phase("serving.freeze", 1, frozen ? 0 : 1);
  if (!frozen) {
    report->Fail("FreezePair failed");
  } else if (!FrozenScoresMatch(&logged, *cell.snapshot, seed)) {
    report->Fail("FrozenDomainState::Score differs from RecModel::Score");
  }
  return cell;
}

}  // namespace

void RunTrainWorkload(const RunArgs& args, Report* report) {
  nmcdr::RegisterNmcdrModel();
  Tracer tracer;

  // Set-up: scenario generation, split and graphs, model factory. The
  // median over kSetups is setup_s; the last one is kept.
  std::vector<double> setup_s, scenario_s, model_init_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.model.reset();
    setup.data.reset();
    setup = BuildSetup(args.seed);
    setup_s.push_back(setup.scenario_s + setup.model_init_s);
    scenario_s.push_back(setup.scenario_s);
    model_init_s.push_back(setup.model_init_s);
  }
  const nmcdr::ExperimentData& data = *setup.data;
  report->Note("scenario",
               nmcdr::DomainStatsString(data.scenario().z) + "; " +
                   nmcdr::DomainStatsString(data.scenario().zbar));

  // Cells until the measuring time is used up. The traced run alternates
  // untraced and traced cells (tracing, plus obs profiling around the
  // replayed training steps), so the tracing overhead is measured within
  // one process.
  std::vector<double> step_ms, cell_s, untraced_step_s;
  std::vector<double> eval_s, freeze_ms, traced_step_ms;
  ProfileTotals profile;
  int64_t profiled_steps = 0;
  std::vector<double> hr_ref;
  std::unique_ptr<nmcdr::ModelSnapshot> last_snapshot;
  const double start = NowSeconds();
  for (int c = 0;; ++c) {
    const bool traced = args.trace && c % 2 == 1;
    if (c > 0 && NowSeconds() - start >= args.seconds &&
        (!args.trace || c >= 2)) {
      break;
    }
    std::unique_ptr<nmcdr::RecModel> model =
        c == 0 ? std::move(setup.model) : MakeModel(data, args.seed);
    tracer.SetActive(traced);
    if (traced) nmcdr::obs::ResetOpAndKernelStats();
    CellResult cell =
        RunCell(data, model.get(), args.seed, traced, &tracer, report);
    if (traced) {
      profile.AddSnapshot();
      profiled_steps += cell.profiled_steps;
    }
    tracer.SetActive(false);

    const std::vector<double> hr = {cell.test.z.hr, cell.test.zbar.hr,
                                    cell.test.z.ndcg, cell.test.zbar.ndcg};
    if (hr_ref.empty()) {
      hr_ref = hr;
    } else if (hr != hr_ref) {
      report->Fail("cell " + std::to_string(c) +
                   " ranked differently from cell 0 on the same inputs");
    }
    const double per_step = cell.train_s / std::max<int64_t>(cell.steps, 1);
    if (!traced) untraced_step_s.push_back(per_step);
    if (traced) {
      // Replayed steps only: the first step of a Train call records.
      traced_step_ms.insert(traced_step_ms.end(), cell.step_ms.begin() + 1,
                            cell.step_ms.end());
      eval_s.push_back(cell.evaluate_s);
      freeze_ms.push_back(cell.freeze_s * 1e3);
      cell_s.push_back(cell.train_s + cell.evaluate_s + cell.freeze_s);
    } else {
      step_ms.insert(step_ms.end(), cell.step_ms.begin(), cell.step_ms.end());
      if (!args.trace) {
        cell_s.push_back(cell.train_s + cell.evaluate_s + cell.freeze_s);
      }
    }
    last_snapshot = std::move(cell.snapshot);
  }
  report->Note("quality", "test HR@10 " + std::to_string(hr_ref[0] * 100) +
                              "% / " + std::to_string(hr_ref[1] * 100) +
                              "%, NDCG@10 " + std::to_string(hr_ref[2] * 100) +
                              "% / " + std::to_string(hr_ref[3] * 100) + "%");
  report->Note("cells", std::to_string(cell_s.size()) + " (median " +
                            std::to_string(Median(cell_s)) + " s)");

  if (!args.trace) {
    const BlockTails tail = BlockTailsOf(step_ms);
    report->Note("tail_ms", "median of " + std::to_string(tail.tails.size()) +
                                " blocks of " + std::to_string(tail.block) +
                                " steps, each block's p" +
                                std::to_string(static_cast<int>(tail.percentile)));
    report->Note("set-ups (ms)", MillisecondsList(setup_s));
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report->Metric("throughput_per_s", 1.0 / Median(untraced_step_s), "1/s");
    report->Metric("p50_ms", Median(step_ms), "ms");
    report->Metric("tail_ms", Median(tail.tails), "ms");
    return;
  }

  LayerValues layers;
  layers["data.scenario_s"] = Median(scenario_s);
  layers["core.model_init_s"] = Median(model_init_s);
  layers["train.cell_s"] = Median(cell_s);
  layers["eval.hr10_pct"] = 50.0 * (hr_ref[0] + hr_ref[1]);
  layers["eval.ndcg10_pct"] = 50.0 * (hr_ref[2] + hr_ref[3]);
  layers["eval.evaluate_s"] = Median(eval_s);
  const int64_t eval_users =
      static_cast<int64_t>(data.split_z().TestUsers().size() +
                           data.split_zbar().TestUsers().size());
  layers["eval.pairs_per_s"] =
      static_cast<double>(eval_users * (1 + nmcdr::EvalConfig().num_negatives)) /
      Median(eval_s);
  layers["serving.freeze_ms"] = Median(freeze_ms);
  const double ps = static_cast<double>(std::max<int64_t>(profiled_steps, 1));
  layers["core.train_step_ms"] = Median(traced_step_ms);
  layers["tensor.kernel_ms_per_step"] = profile.kernel_ns / ps * 1e-6;
  layers["core.step_self_ms"] =
      layers["core.train_step_ms"] - layers["tensor.kernel_ms_per_step"];
  layers["tensor.kernel_calls_per_step"] = profile.kernel_calls / ps;
  layers["tensor.gemm_calls_per_step"] = profile.gemm_calls / ps;
  layers["tensor.axpy_calls_per_step"] = profile.axpy_calls / ps;
  layers["tensor.mflop_per_step"] = profile.flops / ps * 1e-6;
  layers["tensor.gemm_gflops"] =
      profile.gemm_ns > 0 ? profile.gemm_flops / profile.gemm_ns : 0.0;
  layers["autograd.forward_ms_per_step"] = profile.forward_ns / ps * 1e-6;
  layers["autograd.backward_ms_per_step"] = profile.backward_ns / ps * 1e-6;
  // Median step of the traced cells against that of the untraced ones.
  layers["trace.overhead_pct"] =
      (Median(traced_step_ms) / Median(step_ms) - 1.0) * 100.0;

  tracer.SetActive(true);
  ProbeGraphAndProgram(data, args.seed, &tracer, &layers);
  const std::vector<nmcdr::RecRequest> requests =
      MakeRequests(*last_snapshot, 64, args.seed);
  ProbeServingLayers(*last_snapshot, requests, 2, &tracer, &layers);
  tracer.SetActive(false);
  ReportLayers(layers, tracer, args.trace_out, report);
}

}  // namespace perfbench
