// Training-run observability (DESIGN.md §11): per-task MTL telemetry for
// the trainer, numerics sentinels, AoA/attention introspection, and the
// /trainz live view.
//
// Three independent consumers hang off the training step path:
//
//   1. The JSONL event log (--train-events / EMBA_TRAIN_EVENTS): one
//      schema-versioned JSON object per line — run_start, step, epoch,
//      eval, checkpoint, run_end — written with a single fwrite + fflush
//      per event so a concurrent tail always sees complete lines.
//   2. Numerics sentinels: global and per-module gradient norms,
//      update-to-weight ratios, and NaN/Inf detection on losses and
//      gradients (the `training.numerics.*` metrics family). With
//      nan-abort armed, the first non-finite value fail-fasts the process
//      with the offending module named.
//   3. The in-memory run status behind /trainz: per-task per-epoch loss
//      series, eval F1/P/R series, a ring of recent steps, sentinel state
//      and the last checkpoint, served as JSON. It is the one store of a
//      run's progress; util/observability keeps only process liveness.
//
// Every per-step decision lives here, not in the trainer: per optimizer
// step the trainer hands ObserveStep the step's losses and gradients (the
// sentinels and nan-abort) and LogStep the weights and update norms (the
// step record).
//
// Zero-overhead-when-off is the same hard contract as the serving-side
// stack: the trainer asks TelemetryActive() once per step (relaxed atomic
// loads + one branch) and skips every per-step hook when it is false.
// Attention statistics are costlier (a pass over every attention row) and
// have their own opt-in gate, AttnStatsEnabled() / EMBA_ATTN_STATS.
//
// Layering: this library sees only emba_tensor + emba_util. The trainer
// hands in raw tensors and dotted parameter names (never ag::Var), which is
// what lets nn/ modules (attention, optimizer) link against it without a
// dependency cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/http_server.h"
#include "util/status.h"

namespace emba {
namespace train_obs {

/// Version stamped into every event's "v" field. Bump when an existing
/// field changes meaning or type; adding fields is not a version bump.
constexpr int kEventSchemaVersion = 1;

/// Exit code of a nan-abort fail-fast (distinct from EMBA_CHECK aborts so
/// harnesses can tell "numerics tripped the sentinel" from "bug").
constexpr int kNanAbortExitCode = 120;

// ---------------------------------------------------------------------------
// Enablement

/// Configures the JSONL event log path. Non-empty enables per-step
/// telemetry; empty disables. The file is opened lazily by StartRun.
void SetEventLogPath(const std::string& path);

/// Arms the fail-fast on non-finite losses/gradients (--nan-abort /
/// EMBA_NAN_ABORT). Arming also activates per-step telemetry: the sentinel
/// has to look at every gradient to be able to trip.
void SetNanAbort(bool on);

/// Forces sentinel collection without an event log or server (tests, and
/// runs that only want the training.numerics.* metrics family).
void SetSentinelsEnabled(bool on);

/// Gate for attention-row statistics (EMBA_ATTN_STATS). Off by default —
/// the entropy pass is O(rows × cols) per attention matrix, far too hot for
/// the zero-overhead contract.
void SetAttnStatsEnabled(bool on);
bool AttnStatsEnabled();

/// True when any per-step telemetry consumer is live: the event log, the
/// sentinels/nan-abort, or the observability server (which wants fresh
/// /trainz state). Relaxed loads + short-circuit; the trainer's once-per-
/// step gate.
bool TelemetryActive();

/// Applies EMBA_TRAIN_EVENTS (event-log path), EMBA_NAN_ABORT and
/// EMBA_ATTN_STATS (bools; on enables, a malformed value warns and is
/// ignored). Called from InitObservabilityFromEnv-adjacent main() wiring.
void InitTrainObsFromEnv();

// ---------------------------------------------------------------------------
// Run lifecycle + events (called by core::Trainer)

struct RunInfo {
  std::string dataset;
  std::string model;
  int64_t max_epochs = 0;
  int64_t train_size = 0;
  bool has_aux_heads = false;
  /// Resume handling: a fresh run truncates an existing event log; a
  /// resumed run *trims* it instead — step events at `resume_step` or
  /// later and epoch-scoped events at `resume_epoch` or later are dropped
  /// (they belong to the abandoned post-checkpoint trajectory) and the
  /// replay appends after the survivors, so one log holds one
  /// duplicate-free record of the stitched run.
  bool resumed = false;
  int64_t resume_step = 0;
  int64_t resume_epoch = 0;
  /// Dotted parameter names, in the order of the per-parameter tensors the
  /// trainer later hands to ObserveStep and LogStep. StartRun groups them
  /// once into top-level modules (name up to the first '.').
  std::vector<std::string> param_names;
};

/// Resets the in-memory run status, groups the parameters by module,
/// opens/trims the event log (when configured) and writes the run_start
/// event. IOError when the log path is not writable.
Status StartRun(const RunInfo& info);

/// Writes the run_end event (sentinel totals ride along) and closes the
/// log. No-op when no run is open.
void EndRun(double best_valid_f1, double test_f1, int64_t epochs_ran);

/// The task heads of Eq. 3: entity matching and the two entity-ID heads.
enum Task { kEm, kId1, kId2, kTaskCount };

/// The per-task sums of Eq. 3 over a span of examples (a step, an epoch)
/// and the number of examples that reached each task head (the ID heads
/// stay 0 for single-task models), indexed by Task. The event log carries
/// the sums; /trainz shows per-example means.
struct TaskLosses {
  double sum[kTaskCount] = {};
  int64_t count[kTaskCount] = {};

  void Add(Task task, double loss) {
    sum[task] += loss;
    ++count[task];
  }
  /// What was accumulated since `before`: "this step" is "epoch so far −
  /// epoch before the step".
  TaskLosses operator-(const TaskLosses& before) const {
    TaskLosses d;
    for (int t = 0; t < kTaskCount; ++t) {
      d.sum[t] = sum[t] - before.sum[t];
      d.count[t] = count[t] - before.count[t];
    }
    return d;
  }
};

/// The numerics sentinels of one optimizer step, called after the backward
/// pass and before clipping (clipping a non-finite norm rescales by 0 and
/// smears the evidence into NaN everywhere). Checks the step's losses
/// (training.numerics.nonfinite_losses, offender "loss:<task>"), then the
/// gradients, index-aligned with RunInfo::param_names: per-module and
/// global norms into the training.grad_norm.* gauges, non-finite detection
/// into training.numerics.nonfinite_grads (offender "grad:<param>"). Null
/// tensors are skipped (parameters that received no gradient this step).
/// With nan-abort armed, a non-finite loss — else a non-finite gradient —
/// logs the offender, writes an abort event and exits with
/// kNanAbortExitCode. The step's losses and norms are kept for LogStep.
/// One pass over every gradient: call only under TelemetryActive().
void ObserveStep(int64_t step, const TaskLosses& losses,
                 const std::vector<const Tensor*>& grads);

/// The record of the step ObserveStep last saw, once the optimizer has
/// applied it. `weights` and the optimizer's per-parameter Σδ² are
/// index-aligned with RunInfo::param_names (a missing Σδ² counts as 0);
/// LogStep turns them into update-to-weight ratios √Σ‖δ‖² / √Σ‖w‖², global
/// and per module, sets the training.update_ratio.* gauges, updates /trainz
/// and writes the step event. Call only under TelemetryActive().
void LogStep(int64_t epoch, double lr, double step_ms,
             const std::vector<const Tensor*>& weights,
             const std::vector<double>& update_sq_norms);

/// Epoch boundary, with the epoch's per-task loss sums. The event also
/// carries allocator/kernel provenance sampled here: cumulative tensor heap
/// allocations and thread-pool parallel_for launches. Like LogEval, a
/// no-op unless TelemetryActive().
struct EpochEvent {
  int64_t epoch = 0;
  int64_t step = 0;
  TaskLosses losses;
  double epoch_seconds = 0.0;
};
void LogEpoch(const EpochEvent& event);

/// Validation (split "valid", once per epoch) or the final test evaluation
/// (split "test").
struct EvalEvent {
  int64_t epoch = 0;
  int64_t step = 0;
  std::string split;  ///< "valid" | "test"
  double f1 = 0.0, precision = 0.0, recall = 0.0;
  double id1_accuracy = 0.0, id2_accuracy = 0.0;
  bool improved = false;  ///< new best validation F1
};
void LogEval(const EvalEvent& event);

/// One published checkpoint: written to the event log when configured, and
/// always recorded as the run's /trainz last_checkpoint.
struct CheckpointEvent {
  int64_t epoch = 0;
  int64_t step = 0;
  std::string path;
  int64_t bytes = 0;  ///< serialized image size × files written
  double write_ms = 0.0;
};
void LogCheckpoint(const CheckpointEvent& event);

// ---------------------------------------------------------------------------
// Attention introspection (EMBA_ATTN_STATS)

/// Registers a named attention family ("layer0", "aoa_alpha", ...) and
/// returns its id. Idempotent per name; resolve once, observe forever.
int RegisterAttentionFamily(const std::string& name);

/// Per-row entropy (−Σ p·ln p, nats) and row-max of a right-stochastic
/// matrix (each row a softmax distribution), observed into the
/// training.attn.entropy.<family> / training.attn.rowmax.<family>
/// histograms. Call only under AttnStatsEnabled().
void ObserveAttentionRows(int family, const Tensor& rows);

// ---------------------------------------------------------------------------
// /trainz

/// The /trainz endpoint: the run status as JSON. Registered as an extra
/// observability endpoint automatically when this library is linked;
/// exported for direct testing.
http::HttpResponse HandleTrainzRequest(const http::HttpRequest& req);

// ---------------------------------------------------------------------------
// Test hooks

/// Drops all in-memory run state and closes any open event log (the path
/// configuration and enable flags survive; clear them explicitly).
void ResetTrainObsForTest();

}  // namespace train_obs
}  // namespace emba
