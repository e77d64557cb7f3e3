// train_report — offline analysis of train_obs JSONL event logs.
//
//   train_report <events.jsonl>                      summarize one run
//   train_report <baseline.jsonl> <candidate.jsonl>  diff two runs
//               [--f1-tol X] [--loss-tol-pct P]
//
// Diff mode prints a per-task regression table (final per-example epoch
// loss for em/id1/id2, best validation F1, test F1, throughput, numerics
// sentinels) and exits 1 when the candidate regresses beyond tolerance:
// a task loss more than --loss-tol-pct percent above baseline (default 5),
// an F1 more than --f1-tol below baseline (default 0.01), or a non-finite
// sentinel firing where the baseline was clean. Exit 0 = no regression,
// exit 2 = usage/parse error.
//
// Each line is parsed with json::Parse and fields are read by key; lines
// that are not JSON objects (a torn final line) are skipped.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "util/atomic_file.h"
#include "util/json.h"
#include "util/status.h"

namespace {

using emba::ReadFileToString;
using emba::Status;

namespace json = emba::json;

/// Reads number member `key` of `obj` into `out`; false (and `out`
/// untouched) when absent. Schema-v1 events spell non-finite numbers as
/// the strings "nan", "inf" and "-inf".
bool ReadNumber(const json::Value& obj, const char* key, double* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr) return false;
  if (v->is_number()) {
    *out = v->AsNumber();
  } else if (v->is_string() && v->AsString() == "inf") {
    *out = HUGE_VAL;
  } else if (v->is_string() && v->AsString() == "-inf") {
    *out = -HUGE_VAL;
  } else if (v->is_string() && v->AsString() == "nan") {
    *out = NAN;
  } else {
    return false;
  }
  return true;
}

bool ReadString(const json::Value& obj, const char* key, std::string* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->AsString();
  return true;
}

constexpr int kNumTasks = 3;
const char* const kTaskNames[kNumTasks] = {"em", "id1", "id2"};

struct RunSummary {
  std::string path;
  std::string dataset, model;
  bool has_run_end = false;
  int64_t steps = 0;
  int64_t epochs = 0;
  double step_ms_sum = 0.0;
  /// Final-epoch per-example mean loss per task; NaN when the task never
  /// reported (single-task model).
  double final_loss[kNumTasks] = {NAN, NAN, NAN};
  double best_valid_f1 = NAN;
  double last_valid_f1 = NAN;
  double test_f1 = NAN;
  double wall_seconds = NAN;
  double nonfinite_losses = 0.0, nonfinite_grads = 0.0;
  int64_t checkpoints = 0;
};

Status ParseLog(const std::string& path, RunSummary* out) {
  std::string contents;
  Status status = ReadFileToString(path, &contents);
  if (!status.ok()) return status;
  out->path = path;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) nl = contents.size();
    const std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    emba::Result<json::Value> parsed = json::Parse(line);
    if (!parsed.ok()) continue;
    const json::Value& event = *parsed;
    std::string type;
    if (!ReadString(event, "type", &type)) continue;
    if (type == "run_start") {
      ReadString(event, "dataset", &out->dataset);
      ReadString(event, "model", &out->model);
    } else if (type == "step") {
      ++out->steps;
      double ms = 0.0;
      if (ReadNumber(event, "step_ms", &ms)) out->step_ms_sum += ms;
    } else if (type == "epoch") {
      ++out->epochs;
      const json::Value* loss = event.Find("loss");
      const json::Value* examples = event.Find("examples");
      if (loss != nullptr && examples != nullptr) {
        for (int t = 0; t < kNumTasks; ++t) {
          double sum = 0.0, n = 0.0;
          if (ReadNumber(*loss, kTaskNames[t], &sum) &&
              ReadNumber(*examples, kTaskNames[t], &n) && n > 0.0) {
            out->final_loss[t] = sum / n;
          }
        }
      }
    } else if (type == "eval") {
      std::string split;
      double f1 = NAN;
      if (ReadString(event, "split", &split) &&
          ReadNumber(event, "f1", &f1)) {
        if (split == "valid") {
          out->last_valid_f1 = f1;
          if (std::isnan(out->best_valid_f1) || f1 > out->best_valid_f1) {
            out->best_valid_f1 = f1;
          }
        } else if (split == "test") {
          out->test_f1 = f1;
        }
      }
    } else if (type == "checkpoint") {
      ++out->checkpoints;
    } else if (type == "run_end") {
      out->has_run_end = true;
      ReadNumber(event, "best_valid_f1", &out->best_valid_f1);
      ReadNumber(event, "test_f1", &out->test_f1);
      ReadNumber(event, "wall_seconds", &out->wall_seconds);
      ReadNumber(event, "nonfinite_losses", &out->nonfinite_losses);
      ReadNumber(event, "nonfinite_grads", &out->nonfinite_grads);
    }
  }
  if (out->steps == 0 && out->epochs == 0) {
    return Status::Invalid(path + " contains no step or epoch events");
  }
  return Status::OK();
}

std::string Fmt(double v, const char* fmt = "%.4f") {
  if (std::isnan(v)) return "—";
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

void PrintSummary(const RunSummary& s) {
  std::printf("run: %s (%s on %s)%s\n", s.path.c_str(), s.model.c_str(),
              s.dataset.c_str(), s.has_run_end ? "" : "  [no run_end]");
  std::printf("  epochs %lld, steps %lld, mean step %s ms, wall %s s, "
              "checkpoints %lld\n",
              static_cast<long long>(s.epochs),
              static_cast<long long>(s.steps),
              Fmt(s.steps > 0 ? s.step_ms_sum / s.steps : NAN, "%.2f").c_str(),
              Fmt(s.wall_seconds, "%.2f").c_str(),
              static_cast<long long>(s.checkpoints));
  std::printf("  final loss  em=%s id1=%s id2=%s\n",
              Fmt(s.final_loss[0]).c_str(), Fmt(s.final_loss[1]).c_str(),
              Fmt(s.final_loss[2]).c_str());
  std::printf("  best valid F1=%s  last valid F1=%s  test F1=%s\n",
              Fmt(s.best_valid_f1).c_str(), Fmt(s.last_valid_f1).c_str(),
              Fmt(s.test_f1).c_str());
  std::printf("  numerics: nonfinite losses=%.0f grads=%.0f\n",
              s.nonfinite_losses, s.nonfinite_grads);
}

struct DiffRow {
  std::string metric;
  double baseline = NAN, candidate = NAN;
  bool regressed = false;
  std::string note;
};

int PrintDiff(const RunSummary& base, const RunSummary& cand, double f1_tol,
              double loss_tol_pct) {
  std::vector<DiffRow> rows;
  for (int t = 0; t < kNumTasks; ++t) {
    DiffRow row;
    row.metric = std::string("loss.") + kTaskNames[t];
    row.baseline = base.final_loss[t];
    row.candidate = cand.final_loss[t];
    if (!std::isnan(row.baseline) && !std::isnan(row.candidate)) {
      const double bound =
          row.baseline * (1.0 + loss_tol_pct / 100.0) + 1e-12;
      row.regressed = !(row.candidate <= bound);  // NaN/inf-safe: regresses
      if (row.regressed) row.note = "above +" + Fmt(loss_tol_pct, "%.1f") + "%";
    } else if (std::isnan(row.baseline) != std::isnan(row.candidate)) {
      row.regressed = std::isnan(row.candidate);
      row.note = "task series missing on one side";
    }
    rows.push_back(row);
  }
  const struct {
    const char* name;
    double b, c;
  } f1s[] = {{"best_valid_f1", base.best_valid_f1, cand.best_valid_f1},
             {"test_f1", base.test_f1, cand.test_f1}};
  for (const auto& f : f1s) {
    DiffRow row;
    row.metric = f.name;
    row.baseline = f.b;
    row.candidate = f.c;
    if (!std::isnan(f.b)) {
      row.regressed = !(f.c >= f.b - f1_tol);  // NaN candidate regresses
      if (row.regressed) row.note = "below -" + Fmt(f1_tol, "%.3f");
    }
    rows.push_back(row);
  }
  {
    DiffRow row;
    row.metric = "nonfinite";
    row.baseline = base.nonfinite_losses + base.nonfinite_grads;
    row.candidate = cand.nonfinite_losses + cand.nonfinite_grads;
    row.regressed = row.candidate > row.baseline;
    if (row.regressed) row.note = "numerics sentinel fired";
    rows.push_back(row);
  }

  std::printf("%-16s %12s %12s  %s\n", "metric", "baseline", "candidate",
              "verdict");
  bool any_regression = false;
  for (const auto& row : rows) {
    any_regression = any_regression || row.regressed;
    std::printf("%-16s %12s %12s  %s%s%s\n", row.metric.c_str(),
                Fmt(row.baseline).c_str(), Fmt(row.candidate).c_str(),
                row.regressed ? "REGRESSED" : "ok",
                row.note.empty() ? "" : " — ", row.note.c_str());
  }
  std::printf("\nbaseline:  %lld steps, wall %s s\ncandidate: %lld steps, "
              "wall %s s\n",
              static_cast<long long>(base.steps),
              Fmt(base.wall_seconds, "%.2f").c_str(),
              static_cast<long long>(cand.steps),
              Fmt(cand.wall_seconds, "%.2f").c_str());
  return any_regression ? 1 : 0;
}

int UsageError() {
  std::fprintf(stderr,
               "usage: train_report <events.jsonl>\n"
               "       train_report <baseline.jsonl> <candidate.jsonl> "
               "[--f1-tol X] [--loss-tol-pct P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double f1_tol = 0.01;
  double loss_tol_pct = 5.0;
  std::vector<std::string> paths;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--f1-tol") == 0 && a + 1 < argc) {
      f1_tol = std::atof(argv[++a]);
      if (f1_tol < 0.0) return UsageError();
    } else if (std::strcmp(argv[a], "--loss-tol-pct") == 0 && a + 1 < argc) {
      loss_tol_pct = std::atof(argv[++a]);
      if (loss_tol_pct < 0.0) return UsageError();
    } else if (argv[a][0] == '-') {
      return UsageError();
    } else {
      paths.push_back(argv[a]);
    }
  }
  if (paths.empty() || paths.size() > 2) return UsageError();

  std::vector<RunSummary> runs(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    Status status = ParseLog(paths[i], &runs[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 2;
    }
  }
  if (runs.size() == 1) {
    PrintSummary(runs[0]);
    return 0;
  }
  PrintSummary(runs[0]);
  std::printf("\n");
  PrintSummary(runs[1]);
  std::printf("\n");
  return PrintDiff(runs[0], runs[1], f1_tol, loss_tol_pct);
}
