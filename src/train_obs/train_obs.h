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
#include <utility>
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
std::string EventLogPath();
bool EventLogConfigured();

/// Arms the fail-fast on non-finite losses/gradients (--nan-abort /
/// EMBA_NAN_ABORT). Arming also activates per-step telemetry: the sentinel
/// has to look at every gradient to be able to trip.
void SetNanAbort(bool on);
bool NanAbort();

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
  /// trainer later hands to ObserveGradients / ObserveUpdates. StartRun
  /// groups them once into top-level modules (name up to the first '.').
  std::vector<std::string> param_names;
};

/// Resets the in-memory run status, groups the parameters by module,
/// opens/trims the event log (when configured) and writes the run_start
/// event. IOError when the log path is not writable.
Status StartRun(const RunInfo& info);

/// Writes the run_end event (sentinel totals ride along) and closes the
/// log. No-op when no run is open.
void EndRun(double best_valid_f1, double test_f1, int64_t epochs_ran);

/// One optimizer step. Losses are per-task sums over the mini-batch;
/// counts are the number of examples that contributed to each task head
/// (id1/id2 are 0 for single-task models).
struct StepEvent {
  int64_t step = 0;
  int64_t epoch = 0;
  double loss_em = 0.0, loss_id1 = 0.0, loss_id2 = 0.0;
  int64_t n_em = 0, n_id1 = 0, n_id2 = 0;
  double lr = 0.0;
  double grad_norm = 0.0;      ///< pre-clip global L2 norm
  double update_ratio = 0.0;   ///< ‖applied update‖ / ‖weights‖, global
  double step_ms = 0.0;
  /// Per-top-level-module pre-clip gradient norms (module = dotted name up
  /// to the first '.'). Sorted by module name.
  std::vector<std::pair<std::string, double>> module_grad_norms;
  /// Per-top-level-module ‖applied update‖ / ‖weights‖, sorted by module.
  std::vector<std::pair<std::string, double>> module_update_ratios;
};
void LogStep(const StepEvent& event);

/// Epoch boundary. Losses are per-task sums over the whole epoch; the
/// event log carries the sums, /trainz shows per-example means.
struct EpochEvent {
  int64_t epoch = 0;
  int64_t step = 0;
  double loss_em = 0.0, loss_id1 = 0.0, loss_id2 = 0.0;
  int64_t n_em = 0, n_id1 = 0, n_id2 = 0;
  double epoch_seconds = 0.0;
  /// Allocator/kernel provenance sampled at the boundary (cheap global
  /// counters): cumulative tensor heap allocations and thread-pool
  /// parallel_for launches.
  int64_t heap_allocs = 0;
  int64_t parallel_for_calls = 0;
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
// Numerics sentinels

struct GradObservation {
  double global_norm = 0.0;  ///< L2 over all gradients (pre-clip)
  bool nonfinite = false;
  std::string offender;  ///< dotted param name of the first non-finite grad
  /// Per-top-level-module L2 norms, sorted by module name.
  std::vector<std::pair<std::string, double>> module_norms;
};

/// Scans per-parameter gradients, index-aligned with RunInfo::param_names:
/// per-module and global norms into the training.grad_norm.* gauges,
/// non-finite detection into training.numerics.nonfinite_grads. Null
/// tensors are skipped (parameters that received no gradient this step);
/// a module none of whose parameters has a gradient is left out. One pass
/// over every gradient — call only under TelemetryActive().
GradObservation ObserveGradients(const std::vector<const Tensor*>& grads);

struct UpdateObservation {
  double global_ratio = 0.0;  ///< ‖applied update‖ / ‖weights‖, all params
  /// Per-top-level-module ratios, sorted by module name.
  std::vector<std::pair<std::string, double>> module_ratios;
};

/// Update-to-weight ratios √Σ‖δ‖² / √Σ‖w‖² of the step just applied.
/// `weights` and the optimizer's per-parameter Σδ² are index-aligned with
/// RunInfo::param_names; a missing Σδ² counts as 0. Call only under
/// TelemetryActive().
UpdateObservation ObserveUpdates(const std::vector<const Tensor*>& weights,
                                 const std::vector<double>& update_sq_norms);

/// Checks the per-task batch loss sums; on a non-finite value increments
/// training.numerics.nonfinite_losses, records the offending task in the
/// run status and returns false with *offender set ("em"/"id1"/"id2").
bool ObserveLoss(double em, double id1, double id2, std::string* offender);

/// Fail-fast path for --nan-abort: logs the offender, flushes the event
/// log, and _exits with kNanAbortExitCode.
[[noreturn]] void NanAbortNow(const std::string& what, int64_t step);

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
