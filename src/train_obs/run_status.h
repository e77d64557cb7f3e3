// Internal: point-in-time snapshot of the in-memory run status, consumed
// by the /trainz renderer (trainz.cc), and the number spelling shared by
// the event log and /trainz JSON. Not part of the public surface.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "train_obs/train_obs.h"

namespace emba {
namespace train_obs {
namespace internal {

/// One optimizer step in the recent-steps ring (per-example mean losses).
struct StepPoint {
  int64_t step = 0;
  double loss_em = 0.0, loss_id1 = 0.0, loss_id2 = 0.0;
  double step_ms = 0.0;
};

struct RunStatusSnapshot {
  bool started = false;
  bool finished = false;
  RunInfo info;
  int64_t epoch = 0;
  int64_t step = 0;
  double lr = 0.0;
  double grad_norm = 0.0;
  double update_ratio = 0.0;
  double run_seconds = 0.0;
  /// Per-epoch per-example mean losses; id series stay empty for
  /// single-task models.
  std::vector<double> epoch_loss_em, epoch_loss_id1, epoch_loss_id2;
  /// Validation metrics per epoch.
  std::vector<double> eval_f1, eval_precision, eval_recall;
  std::vector<StepPoint> recent_steps;  ///< oldest first
  uint64_t nonfinite_losses = 0;        ///< training.numerics.* totals
  uint64_t nonfinite_grads = 0;
  std::string last_offender;  ///< "loss:em" / "grad:<param>"; empty = clean
  bool nan_abort = false;
  bool attn_stats = false;
  std::string event_log_path;  ///< empty when no event log is configured
};

RunStatusSnapshot SnapshotRunStatus();

/// A double as a schema-v1 JSON value: json::NumberToString when finite;
/// otherwise the string "nan", "inf" or "-inf", so a sentinel-tripping
/// loss or gradient still serializes into a parseable event.
std::string JsonDouble(double v);

}  // namespace internal
}  // namespace train_obs
}  // namespace emba
