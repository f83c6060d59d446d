#include "train/trainer.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "program/program.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace nmcdr {

Trainer::Trainer(const ScenarioView& view, const TrainConfig& config,
                 const InteractionGraph* full_graph_z,
                 const InteractionGraph* full_graph_zbar)
    : view_(view),
      config_(config),
      full_graph_z_(full_graph_z),
      full_graph_zbar_(full_graph_zbar),
      sampler_z_(view.train_graph_z),
      sampler_zbar_(view.train_graph_zbar) {
  cursor_z_.order = view.split_z->train;
  cursor_zbar_.order = view.split_zbar->train;
  NMCDR_CHECK(!cursor_z_.order.empty());
  NMCDR_CHECK(!cursor_zbar_.order.empty());
}

LabeledBatch Trainer::NextBatch(DomainSide side, Rng* rng) {
  DomainCursor& cursor =
      side == DomainSide::kZ ? cursor_z_ : cursor_zbar_;
  const NegativeSampler& sampler =
      side == DomainSide::kZ ? sampler_z_ : sampler_zbar_;
  const int negs = config_.negatives_per_positive;
  const int positives =
      std::max(1, config_.batch_size / (1 + std::max(0, negs)));
  LabeledBatch batch;
  batch.users.reserve(positives * (1 + negs));
  batch.items.reserve(positives * (1 + negs));
  batch.labels.reserve(positives * (1 + negs));
  for (int i = 0; i < positives; ++i) {
    if (cursor.next >= cursor.order.size()) {
      rng->Shuffle(&cursor.order);
      cursor.next = 0;
    }
    const Interaction pos = cursor.order[cursor.next++];
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

TrainSummary Trainer::Train(RecModel* model) {
  Rng rng(config_.seed);
  TrainSummary summary;
  Stopwatch watch;

  const size_t max_train = std::max(cursor_z_.order.size(),
                                    cursor_zbar_.order.size());
  const int positives_per_batch = std::max(
      1, config_.batch_size / (1 + std::max(0, config_.negatives_per_positive)));
  const int steps_per_epoch = std::max<int>(
      1, static_cast<int>((max_train + positives_per_batch - 1) /
                          positives_per_batch));
  int epochs = config_.epochs;
  if (config_.min_total_steps > 0) {
    epochs = std::max(epochs, (config_.min_total_steps + steps_per_epoch - 1) /
                                  steps_per_epoch);
  }
  int eval_every = config_.eval_every;
  if (eval_every < 0) eval_every = std::max(1, epochs / 8);

  // Graph-program fusion: the first step records the model's op stream
  // eagerly; the scope exit compiles it into fused groups + an arena plan,
  // and every later step replays the program. Replay is bitwise-identical
  // to eager (tensor/backend.h fused-kernel contract), and any divergence
  // from the recorded stream retires the program to plain eager mode.
  const bool fuse = config_.fusion && prog::FusionEnvEnabled();
  prog::GraphProgram program;
  bool recorded = false;

  double best_hr = -1.0;
  int stale_evals = 0;
  std::vector<Matrix> best_snapshot;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // "train.epoch" span: per-epoch wall time lands in histogram
    // span.train.epoch.seconds; per-epoch loss in gauge train.last_epoch_loss
    // below. Gated once here (not per step) — the step loop itself stays
    // probe-free so observability never perturbs training numerics.
    const obs::TraceSpan epoch_span("train.epoch");
    double loss_sum = 0.0;
    for (int step = 0; step < steps_per_epoch; ++step) {
      const LabeledBatch bz = NextBatch(DomainSide::kZ, &rng);
      const LabeledBatch bzbar = NextBatch(DomainSide::kZbar, &rng);
      if (!fuse) {
        loss_sum += model->TrainStep(bz, bzbar);
      } else if (!recorded) {
        prog::GraphProgram::RecordScope record(&program);
        loss_sum += model->TrainStep(bz, bzbar);
        recorded = true;
      } else if (program.usable()) {
        prog::GraphProgram::ReplayScope replay(&program);
        loss_sum += model->TrainStep(bz, bzbar);
      } else {
        loss_sum += model->TrainStep(bz, bzbar);
      }
    }
    summary.final_loss = static_cast<float>(loss_sum / steps_per_epoch);
    summary.epochs_run = epoch + 1;
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      reg.GetCounter("train.epochs").Add(1);
      reg.GetCounter("train.steps").Add(steps_per_epoch);
      reg.GetGauge("train.last_epoch_loss").Set(summary.final_loss);
    }
    if (config_.verbose) {
      LOG_INFO << model->name() << " epoch " << epoch + 1 << "/" << epochs
               << " loss " << summary.final_loss;
    }
    if (eval_every > 0 && (epoch + 1) % eval_every == 0 &&
        full_graph_z_ != nullptr && full_graph_zbar_ != nullptr) {
      EvalConfig eval_config;
      const ScenarioMetrics valid = EvaluateScenario(
          model, *full_graph_z_, *full_graph_zbar_, *view_.split_z,
          *view_.split_zbar, EvalPhase::kValidation, eval_config);
      const double hr = 0.5 * (valid.z.hr + valid.zbar.hr);
      if (config_.verbose) {
        LOG_INFO << model->name() << " epoch " << epoch + 1 << " valid HR "
                 << hr;
      }
      if (hr > best_hr + 1e-9) {
        best_hr = hr;
        stale_evals = 0;
        best_snapshot = model->params()->SnapshotValues();
      } else if (++stale_evals >= config_.early_stop_patience &&
                 config_.early_stop_patience > 0) {
        break;
      }
    }
  }
  if (!best_snapshot.empty()) {
    model->params()->RestoreValues(best_snapshot);
    model->InvalidateCaches();
  }
  summary.best_valid_hr = std::max(best_hr, 0.0);
  summary.train_seconds = watch.ElapsedSeconds();
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetGauge("train.final_loss").Set(summary.final_loss);
    reg.GetGauge("train.seconds").Set(summary.train_seconds);
    reg.GetGauge("train.best_valid_hr").Set(summary.best_valid_hr);
    if (fuse) program.PublishMetrics();
  }
  return summary;
}

}  // namespace nmcdr
