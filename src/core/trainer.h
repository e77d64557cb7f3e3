// Multi-task training loop — Algorithm 1 of the paper.
//
// Per mini-batch element the dual-objective loss of Eq. 3 is computed
// (BCE on the EM logits plus CE on each entity-ID head when the model has
// auxiliary heads), gradients are accumulated over the mini-batch, clipped,
// and applied with Adam under a linear warmup/decay schedule. Training early-
// stops when validation F1 has not improved for `patience` epochs and the
// best-validation weights are restored before the test evaluation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/metrics.h"
#include "core/model.h"

namespace emba {
namespace train_obs {
struct TaskLosses;
}  // namespace train_obs

namespace core {

struct TrainConfig {
  int max_epochs = 6;
  int warmup_epochs = 1;    ///< paper: one epoch of LR warmup
  float learning_rate = 2e-3f;  ///< scaled-up analog of the paper's 3e-5
  int batch_size = 8;
  float clip_norm = 5.0f;
  int patience = 3;         ///< early-stopping patience in epochs
  int min_epochs = 4;       ///< epochs before early stopping may trigger
                            ///< (slow starters need the warmup to fade)
  /// Weight on each entity-ID CE term of Eq. 3. The paper sums the three
  /// losses unweighted atop pre-trained BERT; training from scratch, the
  /// two CE terms start at ln(C) ≈ 5x the BCE term and drown the EM
  /// gradient (the imbalance the paper itself notes for small datasets).
  /// The default −1 auto-normalizes to 1/ln(C) so all tasks start at
  /// comparable magnitude; set 1.0 for the paper's literal Eq. 3.
  float aux_loss_weight = -1.0f;
  uint64_t seed = 1;
  bool verbose = false;

  // ---- Crash-safe checkpointing (see nn/checkpoint.h, DESIGN.md) ----
  /// When non-empty, a full training checkpoint (parameters, Adam moments
  /// and step count, RNG states, best-validation snapshot, epoch histories)
  /// is written here at epoch boundaries. Writes are atomic: a crash during
  /// a save leaves the previous checkpoint intact.
  std::string checkpoint_path;
  /// Epochs between checkpoint saves (when checkpoint_path is set).
  int checkpoint_every = 1;
  /// Keep-last-K rotation for the versioned checkpoint siblings
  /// (`<checkpoint_path>.e<epoch>`, written beside the latest checkpoint on
  /// every save). 0 keeps every version; K >= 1 deletes the oldest versions
  /// after each successful atomic publish until K remain. The unversioned
  /// `checkpoint_path` (the resume anchor) is never rotated away.
  int checkpoint_keep_last = 0;
  /// Resume from checkpoint_path if it exists; training then continues on
  /// a bit-identical trajectory, as if it had never been interrupted.
  bool resume = false;
  /// The model's dropout Rng (the one passed to CreateModel), when the
  /// caller wants it checkpointed too — required for bit-identical resume
  /// of models that use dropout. Not owned; may be null.
  Rng* dropout_rng = nullptr;
  /// Test hook simulating a crash: abandon the run (no best-weight restore,
  /// no test evaluation) after this many epochs have run in this process.
  /// 0 disables. Checkpoints due before the "crash" are still written.
  int interrupt_after_epochs = 0;

  // ---- Observability (see util/metrics.h, util/trace.h, DESIGN.md) ----
  /// Seconds between heartbeat log lines during training (throughput, mean
  /// loss, ETA). 0 disables. Heartbeats are INFO-level and independent of
  /// `verbose` — a long silent run is exactly what they exist to prevent.
  /// Emission is additionally throttled to at most one line per second;
  /// suppressed firings count in `training.heartbeat.suppressed`.
  double heartbeat_seconds = 30.0;
  /// Test hook exercising the sentinels end to end: poisons the first
  /// gradient element with +inf right after the backward pass of this
  /// global step. -1 disables.
  int64_t inject_inf_grad_at_step = -1;
};

struct EvalResult {
  BinaryMetrics em;
  double id1_accuracy = 0.0;
  double id2_accuracy = 0.0;
  double id_macro_f1 = 0.0;  ///< macro-F1 pooled over both ID tasks
};

struct TrainResult {
  EvalResult test;
  double best_valid_f1 = 0.0;
  int epochs_ran = 0;
  double train_pairs_per_second = 0.0;
  double inference_pairs_per_second = 0.0;
  /// Mean per-sample training loss per epoch. Training is strictly serial,
  /// so this trace (like epoch_valid_f1) is identical at any thread count —
  /// the determinism guarantee the threading test suite asserts.
  std::vector<double> epoch_train_loss;
  /// Validation EM F1 after each epoch.
  std::vector<double> epoch_valid_f1;
};

class Trainer {
 public:
  Trainer(EmModel* model, const EncodedDataset* dataset,
          const TrainConfig& config);

  /// Runs the full training + early stopping + test evaluation. Aborts on
  /// checkpoint/resume errors; use the Status overload to handle them.
  TrainResult Run();

  /// As Run(), but corrupt/incompatible checkpoints (and checkpoint write
  /// failures) surface as a clean error Status instead of aborting.
  Status Run(TrainResult* result);

  /// Evaluates the model on a split (no gradients).
  EvalResult Evaluate(const std::vector<PairSample>& split) const;

 private:
  /// Eq. 3 loss for one sample. Each head's loss value, and one example,
  /// is added to `losses` (the autograd values are already materialized, so
  /// this costs three float reads).
  ag::Var SampleLoss(const PairSample& sample,
                     train_obs::TaskLosses* losses) const;

  EmModel* model_;
  const EncodedDataset* dataset_;
  TrainConfig config_;
};

/// The paper's learning-rate sweep: trains a freshly constructed model per
/// candidate LR, keeps the best validation F1, and returns that model's
/// result. `factory` must return an untrained model each call.
TrainResult RunLrSweep(
    const std::function<std::unique_ptr<EmModel>()>& factory,
    const EncodedDataset& dataset, TrainConfig config,
    const std::vector<float>& learning_rates);

}  // namespace core
}  // namespace emba
