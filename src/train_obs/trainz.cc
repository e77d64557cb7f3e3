// /trainz: the live training view on the observability server. HTML by
// default — per-task loss sparkline tables, numerics-sentinel status, and
// last-checkpoint info — or machine-readable with ?format=json (what the
// CI observability job scrapes).
#include <algorithm>
#include <cmath>
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

void AppendHtmlEscaped(std::ostringstream* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '<': *out << "&lt;"; break;
      case '>': *out << "&gt;"; break;
      case '&': *out << "&amp;"; break;
      case '"': *out << "&quot;"; break;
      default: *out << c;
    }
  }
}

void AppendJsonDoubleArray(std::ostringstream* out,
                           const std::vector<double>& values) {
  *out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << internal::JsonDouble(values[i]);
  }
  *out << ']';
}

/// Unicode block-element sparkline (▁▂▃▄▅▆▇█), scaled to the series'
/// min..max. Flat series render as a mid-height line.
std::string Sparkline(const std::vector<double>& values) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = values[0], hi = values[0];
  for (double v : values) {
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : values) {
    if (!std::isfinite(v)) {
      out += "!";
      continue;
    }
    int idx = 3;
    if (hi > lo) {
      idx = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
      idx = std::max(0, std::min(7, idx));
    }
    out += kBlocks[idx];
  }
  return out;
}

std::string FormatDouble(double v, int precision = 4) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

/// Collapses the recent-steps ring into ≤ width points (mean per chunk) so
/// the step sparkline stays readable when the ring holds hundreds of steps.
std::vector<double> Downsample(const std::vector<StepPoint>& steps,
                               double StepPoint::* field, size_t width) {
  std::vector<double> out;
  if (steps.empty()) return out;
  const size_t chunk = (steps.size() + width - 1) / width;
  for (size_t i = 0; i < steps.size(); i += chunk) {
    double sum = 0.0;
    size_t n = 0;
    for (size_t j = i; j < std::min(i + chunk, steps.size()); ++j) {
      sum += steps[j].*field;
      ++n;
    }
    out.push_back(sum / static_cast<double>(n));
  }
  return out;
}

void AppendTaskRowHtml(std::ostringstream* out, const char* task,
                       const std::vector<double>& epoch_series,
                       const std::vector<double>& recent) {
  *out << "<tr><td><code>" << task << "</code></td><td class=\"spark\">"
       << Sparkline(epoch_series) << "</td><td>"
       << (epoch_series.empty() ? "—" : FormatDouble(epoch_series.back()))
       << "</td><td class=\"spark\">" << Sparkline(recent) << "</td><td>"
       << (recent.empty() ? "—" : FormatDouble(recent.back()))
       << "</td></tr>\n";
}

http::HttpResponse RenderJson(const RunStatusSnapshot& snap) {
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

http::HttpResponse RenderHtml(const RunStatusSnapshot& snap) {
  std::ostringstream out;
  out.precision(6);
  out << "<!doctype html><html><head><title>emba /trainz</title><style>\n"
         "body { font-family: sans-serif; margin: 2em; }\n"
         "table { border-collapse: collapse; margin: 1em 0; }\n"
         "td, th { border: 1px solid #ccc; padding: 4px 10px; "
         "text-align: left; }\n"
         "th { background: #f0f0f0; }\n"
         ".spark { font-family: monospace; letter-spacing: -1px; }\n"
         ".ok { color: #0a0; } .bad { color: #c00; font-weight: bold; }\n"
         "</style></head><body>\n<h1>/trainz — training run</h1>\n";
  if (!snap.started) {
    out << "<p>No training run has started in this process.</p>\n";
  } else {
    out << "<p><b>";
    AppendHtmlEscaped(&out, snap.info.model);
    out << "</b> on <b>";
    AppendHtmlEscaped(&out, snap.info.dataset);
    out << "</b> — " << (snap.finished ? "finished" : "running")
        << ", epoch " << snap.epoch << "/" << snap.info.max_epochs
        << ", step " << snap.step << ", " << snap.info.train_size
        << " train pairs";
    if (snap.info.resumed) out << " (resumed)";
    if (!snap.finished) {
      out << ", " << FormatDouble(snap.run_seconds, 3) << " s elapsed";
    }
    out << "</p>\n";
    out << "<p>lr " << FormatDouble(snap.lr) << " · grad norm "
        << FormatDouble(snap.grad_norm) << " · update/weight "
        << FormatDouble(snap.update_ratio) << "</p>\n";

    out << "<h2>Per-task loss</h2>\n"
           "<table><tr><th>task</th><th>per epoch</th><th>last</th>"
           "<th>recent steps</th><th>last</th></tr>\n";
    constexpr size_t kSparkWidth = 60;
    AppendTaskRowHtml(
        &out, "em", snap.epoch_loss_em,
        Downsample(snap.recent_steps, &StepPoint::loss_em, kSparkWidth));
    if (snap.info.has_aux_heads) {
      AppendTaskRowHtml(
          &out, "id1", snap.epoch_loss_id1,
          Downsample(snap.recent_steps, &StepPoint::loss_id1, kSparkWidth));
      AppendTaskRowHtml(
          &out, "id2", snap.epoch_loss_id2,
          Downsample(snap.recent_steps, &StepPoint::loss_id2, kSparkWidth));
    }
    out << "</table>\n";

    out << "<h2>Validation</h2>\n"
           "<table><tr><th>metric</th><th>per epoch</th><th>last</th></tr>\n";
    const struct {
      const char* name;
      const std::vector<double>& series;
    } kEvalRows[] = {{"F1", snap.eval_f1},
                     {"precision", snap.eval_precision},
                     {"recall", snap.eval_recall}};
    for (const auto& row : kEvalRows) {
      out << "<tr><td>" << row.name << "</td><td class=\"spark\">"
          << Sparkline(row.series) << "</td><td>"
          << (row.series.empty() ? "—" : FormatDouble(row.series.back()))
          << "</td></tr>\n";
    }
    out << "</table>\n";

    out << "<h2>Step time</h2>\n<p class=\"spark\">"
        << Sparkline(
               Downsample(snap.recent_steps, &StepPoint::step_ms, 60))
        << (snap.recent_steps.empty()
                ? ""
                : " " + FormatDouble(snap.recent_steps.back().step_ms, 3) +
                      " ms")
        << "</p>\n";
  }

  out << "<h2>Numerics sentinels</h2>\n<table>"
         "<tr><th>sentinel</th><th>value</th></tr>\n"
         "<tr><td>non-finite losses</td><td class=\""
      << (snap.nonfinite_losses == 0 ? "ok" : "bad") << "\">"
      << snap.nonfinite_losses << "</td></tr>\n"
         "<tr><td>non-finite gradients</td><td class=\""
      << (snap.nonfinite_grads == 0 ? "ok" : "bad") << "\">"
      << snap.nonfinite_grads << "</td></tr>\n"
         "<tr><td>last offender</td><td>";
  if (snap.last_offender.empty()) {
    out << "<span class=\"ok\">none</span>";
  } else {
    out << "<span class=\"bad\">";
    AppendHtmlEscaped(&out, snap.last_offender);
    out << "</span>";
  }
  out << "</td></tr>\n<tr><td>nan-abort</td><td>"
      << (snap.nan_abort ? "armed" : "off") << "</td></tr>\n</table>\n";

  const LastCheckpointInfo ckpt = GetLastCheckpoint();
  out << "<h2>Checkpoint</h2>\n";
  if (ckpt.valid) {
    out << "<p><code>";
    AppendHtmlEscaped(&out, ckpt.path);
    out << "</code> — epoch " << ckpt.epoch << ", unix " << ckpt.unix_seconds
        << "</p>\n";
  } else {
    out << "<p>No checkpoint written yet.</p>\n";
  }

  out << "<p>attention stats: " << (snap.attn_stats ? "on" : "off")
      << " · event log: ";
  if (snap.event_log_path.empty()) {
    out << "off";
  } else {
    out << "<code>";
    AppendHtmlEscaped(&out, snap.event_log_path);
    out << "</code>";
  }
  out << "</p>\n<p><a href=\"/trainz?format=json\">json</a> · "
         "<a href=\"/\">index</a></p>\n</body></html>\n";

  http::HttpResponse resp;
  resp.content_type = "text/html; charset=utf-8";
  resp.body = out.str();
  return resp;
}

}  // namespace

http::HttpResponse HandleTrainzRequest(const http::HttpRequest& req) {
  const RunStatusSnapshot snap = internal::SnapshotRunStatus();
  if (http::QueryParam(req.query, "format") == "json") {
    return RenderJson(snap);
  }
  return RenderHtml(snap);
}

}  // namespace train_obs
}  // namespace emba
