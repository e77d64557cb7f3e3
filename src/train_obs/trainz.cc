// /trainz: the live training view on the observability server, as JSON —
// run metadata, per-task (Eq. 3) loss series per epoch and over the recent
// steps, validation history, numerics-sentinel status and last-checkpoint
// info.
#include <sstream>

#include "train_obs/run_status.h"
#include "train_obs/train_obs.h"
#include "util/json.h"
#include "util/observability.h"

namespace emba {
namespace train_obs {
namespace {

using internal::RunStatusSnapshot;
using internal::StepPoint;

void AppendJsonDoubleArray(std::ostringstream* out,
                           const std::vector<double>& values) {
  *out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << internal::JsonDouble(values[i]);
  }
  *out << ']';
}

}  // namespace

http::HttpResponse HandleTrainzRequest(const http::HttpRequest&) {
  const RunStatusSnapshot snap = internal::SnapshotRunStatus();
  std::ostringstream out;
  out << "{\n  \"started\": " << (snap.started ? "true" : "false")
      << ",\n  \"finished\": " << (snap.finished ? "true" : "false");
  if (snap.started) {
    out << ",\n  \"run\": {\"dataset\": \"" << json::Escape(snap.info.dataset)
        << "\", \"model\": \"" << json::Escape(snap.info.model)
        << "\", \"max_epochs\": " << snap.info.max_epochs
        << ", \"train_size\": " << snap.info.train_size
        << ", \"aux_heads\": " << (snap.info.has_aux_heads ? "true" : "false")
        << ", \"resumed\": " << (snap.info.resumed ? "true" : "false")
        << "}";
    out << ",\n  \"epoch\": " << snap.epoch << ",\n  \"step\": " << snap.step
        << ",\n  \"lr\": " << internal::JsonDouble(snap.lr)
        << ",\n  \"grad_norm\": " << internal::JsonDouble(snap.grad_norm)
        << ",\n  \"update_ratio\": " << internal::JsonDouble(snap.update_ratio)
        << ",\n  \"run_seconds\": " << internal::JsonDouble(snap.run_seconds)
        << ",\n  \"epoch_loss\": {\"em\": ";
    AppendJsonDoubleArray(&out, snap.epoch_loss_em);
    out << ", \"id1\": ";
    AppendJsonDoubleArray(&out, snap.epoch_loss_id1);
    out << ", \"id2\": ";
    AppendJsonDoubleArray(&out, snap.epoch_loss_id2);
    out << "},\n  \"eval\": {\"f1\": ";
    AppendJsonDoubleArray(&out, snap.eval_f1);
    out << ", \"precision\": ";
    AppendJsonDoubleArray(&out, snap.eval_precision);
    out << ", \"recall\": ";
    AppendJsonDoubleArray(&out, snap.eval_recall);
    out << "},\n  \"recent_steps\": {\"count\": " << snap.recent_steps.size();
    std::vector<double> em, id1, id2, ms;
    em.reserve(snap.recent_steps.size());
    for (const StepPoint& p : snap.recent_steps) {
      em.push_back(p.loss_em);
      id1.push_back(p.loss_id1);
      id2.push_back(p.loss_id2);
      ms.push_back(p.step_ms);
    }
    out << ", \"loss_em\": ";
    AppendJsonDoubleArray(&out, em);
    out << ", \"loss_id1\": ";
    AppendJsonDoubleArray(&out, id1);
    out << ", \"loss_id2\": ";
    AppendJsonDoubleArray(&out, id2);
    out << ", \"step_ms\": ";
    AppendJsonDoubleArray(&out, ms);
    out << "}";
  }
  out << ",\n  \"sentinels\": {\"nonfinite_losses\": "
      << snap.nonfinite_losses
      << ", \"nonfinite_grads\": " << snap.nonfinite_grads
      << ", \"last_offender\": \"" << json::Escape(snap.last_offender)
      << "\", \"nan_abort\": " << (snap.nan_abort ? "true" : "false") << "}";
  out << ",\n  \"attn_stats\": " << (snap.attn_stats ? "true" : "false");
  out << ",\n  \"event_log\": ";
  if (snap.event_log_path.empty()) {
    out << "null";
  } else {
    out << '"' << json::Escape(snap.event_log_path) << '"';
  }
  const LastCheckpointInfo ckpt = GetLastCheckpoint();
  out << ",\n  \"last_checkpoint\": ";
  if (ckpt.valid) {
    out << "{\"path\": \"" << json::Escape(ckpt.path)
        << "\", \"epoch\": " << ckpt.epoch << ", \"unix_seconds\": "
        << internal::JsonDouble(ckpt.unix_seconds) << "}";
  } else {
    out << "null";
  }
  out << "\n}\n";
  http::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = out.str();
  return resp;
}

}  // namespace train_obs
}  // namespace emba
