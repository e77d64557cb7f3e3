#include "train_obs/train_obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <optional>
#include <sstream>

#include "util/atomic_file.h"
#include "util/env.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/observability.h"

namespace emba {
namespace train_obs {
namespace {

// ---------------------------------------------------------------------------
// Enablement flags
//
// One atomic bitmask so TelemetryActive() is a single relaxed load (plus
// the observability server's own liveness atomic when the mask is clear).

constexpr uint32_t kFlagEventLog = 1u << 0;
constexpr uint32_t kFlagNanAbort = 1u << 1;
constexpr uint32_t kFlagSentinels = 1u << 2;

std::atomic<uint32_t> g_active_flags{0};
std::atomic<bool> g_attn_stats{false};

void SetFlag(uint32_t flag, bool on) {
  if (on) {
    g_active_flags.fetch_or(flag, std::memory_order_relaxed);
  } else {
    g_active_flags.fetch_and(~flag, std::memory_order_relaxed);
  }
}

double UnixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string UnixNowJson() { return json::NumberToString(UnixNow()); }

/// A double as a schema-v1 JSON value: json::NumberToString when finite;
/// otherwise the string "nan", "inf" or "-inf", so a sentinel-tripping
/// loss or gradient still serializes into a parseable event.
std::string JsonDouble(double v) {
  if (std::isfinite(v)) return json::NumberToString(v);
  if (std::isnan(v)) return "\"nan\"";
  return v > 0 ? "\"inf\"" : "\"-inf\"";
}

// ---------------------------------------------------------------------------
// Event log (JSONL)

struct LogState {
  std::mutex mutex;
  std::string path;
  std::FILE* file = nullptr;
};

LogState& GetLogState() {
  static LogState* state = new LogState();
  return *state;
}

void CloseLogLocked(LogState* log) {
  if (log->file != nullptr) {
    std::fclose(log->file);
    log->file = nullptr;
  }
}

void AppendTaskLosses(std::ostringstream* out, double em, double id1,
                      double id2) {
  *out << "{\"em\": " << JsonDouble(em)
       << ", \"id1\": " << JsonDouble(id1)
       << ", \"id2\": " << JsonDouble(id2) << "}";
}

void AppendNamedDoubles(
    std::ostringstream* out, const char* key,
    const std::vector<std::pair<std::string, double>>& values) {
  *out << ", \"" << key << "\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << '"' << json::Escape(values[i].first)
         << "\": " << JsonDouble(values[i].second);
  }
  *out << "}";
}

/// One complete line per event: a single fwrite + fflush, so a concurrent
/// tail -f (or the CI scrape) never sees a torn line.
void WriteEventLine(const std::string& line) {
  LogState& log = GetLogState();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (log.file == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), log.file);
  std::fflush(log.file);
}

std::ostringstream EventHead(const char* type) {
  std::ostringstream out;
  out << "{\"v\": " << kEventSchemaVersion << ", \"type\": \"" << type
      << '"';
  return out;
}

// ---- resume trimming ----

/// Resume keeps the prefix of the log the resumed trajectory replays on
/// top of: step events strictly before the checkpoint's global step, and
/// epoch-scoped events (epoch/eval/checkpoint) strictly before the resume
/// epoch. run_start/run_end markers and unparseable lines survive.
bool KeepLineOnResume(const std::string& line, int64_t resume_step,
                      int64_t resume_epoch) {
  Result<json::Value> event = json::Parse(line);
  if (!event.ok()) return true;
  const json::Value* type = event->Find("type");
  if (type == nullptr || !type->is_string()) return true;
  const std::string& t = type->AsString();
  const bool step_scoped = t == "step";
  if (!step_scoped && t != "epoch" && t != "eval" && t != "checkpoint") {
    return true;
  }
  const json::Value* v = event->Find(step_scoped ? "step" : "epoch");
  if (v == nullptr || !v->is_number()) return true;
  return v->AsNumber() <
         static_cast<double>(step_scoped ? resume_step : resume_epoch);
}

Status TrimEventLogForResume(const std::string& path, int64_t resume_step,
                             int64_t resume_epoch) {
  std::string contents;
  EMBA_RETURN_NOT_OK(ReadFileToString(path, &contents));
  std::string kept;
  kept.reserve(contents.size());
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) nl = contents.size();
    const std::string line = contents.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (KeepLineOnResume(line, resume_step, resume_epoch)) {
      kept.append(line);
      kept.push_back('\n');
    }
  }
  return WriteFileAtomic(path, kept);
}

// ---------------------------------------------------------------------------
// In-memory run status (/trainz)

constexpr size_t kRecentSteps = 240;

/// One optimizer step in the recent-steps ring (per-example mean losses).
struct StepPoint {
  double loss_em = 0.0, loss_id1 = 0.0, loss_id2 = 0.0;
  double step_ms = 0.0;
};

struct LastCheckpoint {
  std::string path;
  int64_t epoch = 0;          ///< epoch index of the save
  double unix_seconds = 0.0;  ///< wall time of the save
};

/// Everything /trainz knows about one training run. A value type: StartRun
/// and the test reset replace it whole.
struct Run {
  bool started = false;
  bool finished = false;
  RunInfo info;
  int64_t epoch = 0;
  int64_t step = 0;
  double lr = 0.0;
  double grad_norm = 0.0;
  double update_ratio = 0.0;
  std::chrono::steady_clock::time_point start_time;
  double wall_seconds = 0.0;  ///< run length, fixed by EndRun
  /// Per-epoch per-example mean losses; id series stay empty for
  /// single-task models.
  std::vector<double> epoch_loss_em, epoch_loss_id1, epoch_loss_id2;
  /// Validation metrics per epoch.
  std::vector<double> eval_f1, eval_precision, eval_recall;
  std::deque<StepPoint> recent;  ///< oldest first
  std::string last_offender;  ///< "loss:em" / "grad:<param>"; empty = clean
  std::optional<LastCheckpoint> checkpoint;
};

struct RunStatus {
  std::mutex mutex;
  Run run;
};

RunStatus& GetRunStatus() {
  static RunStatus* status = new RunStatus();
  return *status;
}

// Parameter → top-level-module grouping of the current run ("module" = the
// dotted name up to the first '.'), built once by StartRun. Only the
// trainer thread touches it — StartRun and the per-step Observe* hooks — so
// it lives outside the /trainz mutex.
struct ModuleGrouping {
  std::vector<std::string> params;   ///< RunInfo::param_names
  std::vector<std::string> modules;  ///< sorted, unique
  std::vector<size_t> module_of;     ///< param index → index into modules
};

ModuleGrouping& GetGrouping() {
  static ModuleGrouping* grouping = new ModuleGrouping();
  return *grouping;
}

ModuleGrouping GroupByModule(const std::vector<std::string>& param_names) {
  ModuleGrouping grouping;
  grouping.params = param_names;
  std::vector<std::string> module_of_param;
  for (const std::string& name : param_names) {
    module_of_param.push_back(name.substr(0, name.find('.')));
  }
  std::vector<std::string>& modules = grouping.modules;
  modules = module_of_param;
  std::sort(modules.begin(), modules.end());
  modules.erase(std::unique(modules.begin(), modules.end()), modules.end());
  for (const std::string& module : module_of_param) {
    grouping.module_of.push_back(
        std::lower_bound(modules.begin(), modules.end(), module) -
        modules.begin());
  }
  return grouping;
}

// Sentinel counters, resolved once. Process totals: they accumulate across
// runs like every other registry metric.
metrics::Counter& NonfiniteLossCounter() {
  static metrics::Counter& counter =
      metrics::GetCounter("training.numerics.nonfinite_losses");
  return counter;
}

metrics::Counter& NonfiniteGradCounter() {
  static metrics::Counter& counter =
      metrics::GetCounter("training.numerics.nonfinite_grads");
  return counter;
}

}  // namespace

// ---------------------------------------------------------------------------
// Enablement

void SetEventLogPath(const std::string& path) {
  LogState& log = GetLogState();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (path != log.path) CloseLogLocked(&log);
  log.path = path;
  SetFlag(kFlagEventLog, !path.empty());
}

std::string EventLogPath() {
  LogState& log = GetLogState();
  std::lock_guard<std::mutex> lock(log.mutex);
  return log.path;
}

bool EventLogConfigured() {
  return (g_active_flags.load(std::memory_order_relaxed) & kFlagEventLog) !=
         0;
}

void SetNanAbort(bool on) { SetFlag(kFlagNanAbort, on); }

bool NanAbort() {
  return (g_active_flags.load(std::memory_order_relaxed) & kFlagNanAbort) !=
         0;
}

void SetSentinelsEnabled(bool on) { SetFlag(kFlagSentinels, on); }

void SetAttnStatsEnabled(bool on) {
  g_attn_stats.store(on, std::memory_order_relaxed);
}

bool AttnStatsEnabled() {
  return g_attn_stats.load(std::memory_order_relaxed);
}

bool TelemetryActive() {
  return g_active_flags.load(std::memory_order_relaxed) != 0 ||
         ObservabilityServerRunning();
}

void InitTrainObsFromEnv() {
  if (auto path = env::ReadString(env::Knob::kTrainEvents)) {
    SetEventLogPath(*path);
  }
  if (env::ReadBool(env::Knob::kNanAbort).value_or(false)) SetNanAbort(true);
  if (env::ReadBool(env::Knob::kAttnStats).value_or(false)) {
    SetAttnStatsEnabled(true);
  }
}

// ---------------------------------------------------------------------------
// Run lifecycle

Status StartRun(const RunInfo& info) {
  GetGrouping() = GroupByModule(info.param_names);
  {
    Run run;
    run.started = true;
    run.info = info;
    run.epoch = info.resume_epoch;
    run.step = info.resume_step;
    run.start_time = std::chrono::steady_clock::now();
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.run = std::move(run);
  }

  LogState& log = GetLogState();
  std::lock_guard<std::mutex> lock(log.mutex);
  CloseLogLocked(&log);
  if (log.path.empty()) return Status::OK();
  if (info.resumed && FileExists(log.path)) {
    EMBA_RETURN_NOT_OK(
        TrimEventLogForResume(log.path, info.resume_step, info.resume_epoch));
    log.file = std::fopen(log.path.c_str(), "ab");
  } else {
    log.file = std::fopen(log.path.c_str(), "wb");
  }
  if (log.file == nullptr) {
    return Status::IOError("cannot open train-events log: " + log.path);
  }
  std::ostringstream out = EventHead("run_start");
  out << ", \"dataset\": \"" << json::Escape(info.dataset)
      << "\", \"model\": \"" << json::Escape(info.model)
      << "\", \"max_epochs\": " << info.max_epochs
      << ", \"train_size\": " << info.train_size << ", \"aux_heads\": "
      << (info.has_aux_heads ? "true" : "false")
      << ", \"resumed\": " << (info.resumed ? "true" : "false")
      << ", \"resume_step\": " << info.resume_step
      << ", \"resume_epoch\": " << info.resume_epoch
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  const std::string line = out.str();
  std::fwrite(line.data(), 1, line.size(), log.file);
  std::fflush(log.file);
  return Status::OK();
}

void EndRun(double best_valid_f1, double test_f1, int64_t epochs_ran) {
  double run_seconds = 0.0;
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    Run& run = status.run;
    if (!run.started) return;
    run.finished = true;
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - run.start_time)
                           .count();
    run_seconds = run.wall_seconds;
  }
  std::ostringstream out = EventHead("run_end");
  out << ", \"epochs_ran\": " << epochs_ran
      << ", \"best_valid_f1\": " << JsonDouble(best_valid_f1)
      << ", \"test_f1\": " << JsonDouble(test_f1)
      << ", \"wall_seconds\": " << JsonDouble(run_seconds)
      << ", \"nonfinite_losses\": " << NonfiniteLossCounter().Value()
      << ", \"nonfinite_grads\": " << NonfiniteGradCounter().Value()
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
  LogState& log = GetLogState();
  std::lock_guard<std::mutex> lock(log.mutex);
  CloseLogLocked(&log);
}

// ---------------------------------------------------------------------------
// Events

void LogStep(const StepEvent& event) {
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    Run& run = status.run;
    run.step = event.step + 1;  // steps completed
    run.epoch = event.epoch;
    run.lr = event.lr;
    run.grad_norm = event.grad_norm;
    run.update_ratio = event.update_ratio;
    StepPoint point;
    point.loss_em =
        event.n_em > 0 ? event.loss_em / static_cast<double>(event.n_em)
                       : 0.0;
    point.loss_id1 =
        event.n_id1 > 0 ? event.loss_id1 / static_cast<double>(event.n_id1)
                        : 0.0;
    point.loss_id2 =
        event.n_id2 > 0 ? event.loss_id2 / static_cast<double>(event.n_id2)
                        : 0.0;
    point.step_ms = event.step_ms;
    run.recent.push_back(point);
    if (run.recent.size() > kRecentSteps) run.recent.pop_front();
  }
  static metrics::Gauge& update_ratio_gauge =
      metrics::GetGauge("training.update_ratio.global");
  update_ratio_gauge.Set(event.update_ratio);
  for (const auto& [module, ratio] : event.module_update_ratios) {
    metrics::GetGauge("training.update_ratio." + module).Set(ratio);
  }

  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("step");
  out << ", \"step\": " << event.step << ", \"epoch\": " << event.epoch
      << ", \"loss\": ";
  AppendTaskLosses(&out, event.loss_em, event.loss_id1, event.loss_id2);
  out << ", \"examples\": {\"em\": " << event.n_em
      << ", \"id1\": " << event.n_id1 << ", \"id2\": " << event.n_id2
      << "}, \"lr\": " << JsonDouble(event.lr)
      << ", \"grad_norm\": " << JsonDouble(event.grad_norm)
      << ", \"update_ratio\": " << JsonDouble(event.update_ratio)
      << ", \"step_ms\": " << JsonDouble(event.step_ms);
  AppendNamedDoubles(&out, "grad_norms", event.module_grad_norms);
  AppendNamedDoubles(&out, "update_ratios", event.module_update_ratios);
  out << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogEpoch(const EpochEvent& event) {
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    Run& run = status.run;
    run.epoch = event.epoch;
    if (event.n_em > 0) {
      run.epoch_loss_em.push_back(event.loss_em /
                                  static_cast<double>(event.n_em));
    }
    if (event.n_id1 > 0) {
      run.epoch_loss_id1.push_back(event.loss_id1 /
                                   static_cast<double>(event.n_id1));
    }
    if (event.n_id2 > 0) {
      run.epoch_loss_id2.push_back(event.loss_id2 /
                                   static_cast<double>(event.n_id2));
    }
  }
  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("epoch");
  out << ", \"epoch\": " << event.epoch << ", \"step\": " << event.step
      << ", \"loss\": ";
  AppendTaskLosses(&out, event.loss_em, event.loss_id1, event.loss_id2);
  out << ", \"examples\": {\"em\": " << event.n_em
      << ", \"id1\": " << event.n_id1 << ", \"id2\": " << event.n_id2
      << "}, \"epoch_seconds\": " << JsonDouble(event.epoch_seconds)
      << ", \"heap_allocs\": " << event.heap_allocs
      << ", \"parallel_for_calls\": " << event.parallel_for_calls
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogEval(const EvalEvent& event) {
  if (event.split == "valid") {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.run.eval_f1.push_back(event.f1);
    status.run.eval_precision.push_back(event.precision);
    status.run.eval_recall.push_back(event.recall);
  }
  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("eval");
  out << ", \"epoch\": " << event.epoch << ", \"step\": " << event.step
      << ", \"split\": \"" << json::Escape(event.split)
      << "\", \"f1\": " << JsonDouble(event.f1)
      << ", \"precision\": " << JsonDouble(event.precision)
      << ", \"recall\": " << JsonDouble(event.recall)
      << ", \"id1_accuracy\": " << JsonDouble(event.id1_accuracy)
      << ", \"id2_accuracy\": " << JsonDouble(event.id2_accuracy)
      << ", \"improved\": " << (event.improved ? "true" : "false")
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogCheckpoint(const CheckpointEvent& event) {
  {
    LastCheckpoint checkpoint{event.path, event.epoch, UnixNow()};
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.run.checkpoint = std::move(checkpoint);
  }
  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("checkpoint");
  out << ", \"epoch\": " << event.epoch << ", \"step\": " << event.step
      << ", \"path\": \"" << json::Escape(event.path)
      << "\", \"bytes\": " << event.bytes
      << ", \"write_ms\": " << JsonDouble(event.write_ms)
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

// ---------------------------------------------------------------------------
// Numerics sentinels

namespace {

void RecordOffender(const std::string& offender) {
  RunStatus& status = GetRunStatus();
  std::lock_guard<std::mutex> lock(status.mutex);
  status.run.last_offender = offender;
}

}  // namespace

GradObservation ObserveGradients(const std::vector<const Tensor*>& grads) {
  const ModuleGrouping& grouping = GetGrouping();
  EMBA_CHECK_MSG(grads.size() == grouping.params.size(),
                 "gradients not aligned with RunInfo::param_names");
  GradObservation obs;
  std::vector<double> module_sq(grouping.modules.size(), 0.0);
  std::vector<bool> module_seen(grouping.modules.size(), false);
  double total_sq = 0.0;
  for (size_t i = 0; i < grads.size(); ++i) {
    const Tensor* grad = grads[i];
    if (grad == nullptr || grad->size() == 0) continue;
    const double norm = static_cast<double>(grad->Norm());
    if (!std::isfinite(norm) && !obs.nonfinite) {
      obs.nonfinite = true;
      obs.offender = grouping.params[i];
    }
    const double sq = norm * norm;
    total_sq += sq;
    module_sq[grouping.module_of[i]] += sq;
    module_seen[grouping.module_of[i]] = true;
  }
  obs.global_norm = std::sqrt(total_sq);
  for (size_t m = 0; m < grouping.modules.size(); ++m) {
    if (module_seen[m]) {
      obs.module_norms.emplace_back(grouping.modules[m],
                                    std::sqrt(module_sq[m]));
    }
  }

  static metrics::Gauge& global_gauge =
      metrics::GetGauge("training.grad_norm.global");
  global_gauge.Set(obs.global_norm);
  for (const auto& [module, norm] : obs.module_norms) {
    metrics::GetGauge("training.grad_norm." + module).Set(norm);
  }
  if (obs.nonfinite) {
    NonfiniteGradCounter().Increment();
    RecordOffender("grad:" + obs.offender);
  }
  return obs;
}

UpdateObservation ObserveUpdates(const std::vector<const Tensor*>& weights,
                                 const std::vector<double>& update_sq_norms) {
  const ModuleGrouping& grouping = GetGrouping();
  EMBA_CHECK_MSG(weights.size() == grouping.params.size(),
                 "weights not aligned with RunInfo::param_names");
  std::vector<double> module_upd_sq(grouping.modules.size(), 0.0);
  std::vector<double> module_w_sq(grouping.modules.size(), 0.0);
  double total_upd_sq = 0.0, total_w_sq = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double wn = static_cast<double>(weights[i]->Norm());
    const double u_sq = i < update_sq_norms.size() ? update_sq_norms[i] : 0.0;
    total_w_sq += wn * wn;
    total_upd_sq += u_sq;
    module_w_sq[grouping.module_of[i]] += wn * wn;
    module_upd_sq[grouping.module_of[i]] += u_sq;
  }
  const auto ratio = [](double upd_sq, double w_sq) {
    return w_sq > 0.0 ? std::sqrt(upd_sq) / std::sqrt(w_sq) : 0.0;
  };
  UpdateObservation obs;
  obs.global_ratio = ratio(total_upd_sq, total_w_sq);
  for (size_t m = 0; m < grouping.modules.size(); ++m) {
    obs.module_ratios.emplace_back(grouping.modules[m],
                                   ratio(module_upd_sq[m], module_w_sq[m]));
  }
  return obs;
}

bool ObserveLoss(double em, double id1, double id2, std::string* offender) {
  const char* task = nullptr;
  if (!std::isfinite(em)) {
    task = "em";
  } else if (!std::isfinite(id1)) {
    task = "id1";
  } else if (!std::isfinite(id2)) {
    task = "id2";
  }
  if (task == nullptr) return true;
  NonfiniteLossCounter().Increment();
  RecordOffender(std::string("loss:") + task);
  if (offender != nullptr) *offender = task;
  return false;
}

void NanAbortNow(const std::string& what, int64_t step) {
  EMBA_LOG(ERROR) << "nan-abort: non-finite value in " << what << " at step "
                  << step << " — failing fast (--nan-abort)";
  std::ostringstream out = EventHead("abort");
  out << ", \"step\": " << step << ", \"what\": \"" << json::Escape(what)
      << "\", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
  {
    LogState& log = GetLogState();
    std::lock_guard<std::mutex> lock(log.mutex);
    CloseLogLocked(&log);
  }
  // std::exit (not abort): atexit hooks still flush metrics/trace output,
  // and the distinct code tells harnesses "sentinel" apart from "crash".
  std::exit(kNanAbortExitCode);
}

// ---------------------------------------------------------------------------
// Attention introspection

namespace {

struct AttnFamily {
  std::string name;
  metrics::Histogram* entropy = nullptr;
  metrics::Histogram* rowmax = nullptr;
};

struct AttnState {
  std::mutex mutex;
  std::vector<AttnFamily> families;
};

AttnState& GetAttnState() {
  static AttnState* state = new AttnState();
  return *state;
}

}  // namespace

int RegisterAttentionFamily(const std::string& name) {
  AttnState& state = GetAttnState();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (size_t i = 0; i < state.families.size(); ++i) {
    if (state.families[i].name == name) return static_cast<int>(i);
  }
  AttnFamily family;
  family.name = name;
  // Softmax-row entropy is bounded by ln(cols) — 0.25-nat bins to 6 nats
  // cover rows up to ~400 tokens wide; row-max lives in (0, 1].
  family.entropy = &metrics::GetHistogram(
      "training.attn.entropy." + name, metrics::LinearBuckets(0.25, 0.25, 24));
  family.rowmax = &metrics::GetHistogram(
      "training.attn.rowmax." + name, metrics::LinearBuckets(0.05, 0.05, 20));
  state.families.push_back(family);
  return static_cast<int>(state.families.size() - 1);
}

void ObserveAttentionRows(int family, const Tensor& rows) {
  if (family < 0) return;
  metrics::Histogram* entropy = nullptr;
  metrics::Histogram* rowmax = nullptr;
  {
    AttnState& state = GetAttnState();
    std::lock_guard<std::mutex> lock(state.mutex);
    if (static_cast<size_t>(family) >= state.families.size()) return;
    entropy = state.families[family].entropy;
    rowmax = state.families[family].rowmax;
  }
  const int64_t r = rows.rows();
  const int64_t c = rows.cols();
  const float* data = rows.data();
  for (int64_t i = 0; i < r; ++i) {
    const float* row = data + i * c;
    double h = 0.0;
    float max_p = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      const float p = row[j];
      if (p > 0.0f) h -= static_cast<double>(p) * std::log(p);
      if (p > max_p) max_p = p;
    }
    entropy->Observe(h);
    rowmax->Observe(static_cast<double>(max_p));
  }
}

// ---------------------------------------------------------------------------
// /trainz

namespace {

void AppendJsonDoubles(std::ostringstream* out,
                       const std::vector<double>& values) {
  *out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << JsonDouble(values[i]);
  }
  *out << ']';
}

void AppendRecentSeries(std::ostringstream* out, const char* key,
                        const std::deque<StepPoint>& recent,
                        double StepPoint::*field) {
  *out << ", \"" << key << "\": [";
  for (size_t i = 0; i < recent.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << JsonDouble(recent[i].*field);
  }
  *out << ']';
}

}  // namespace

http::HttpResponse HandleTrainzRequest(const http::HttpRequest&) {
  const std::string event_log_path = EventLogPath();
  std::ostringstream out;
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    const Run& run = status.run;
    out << "{\n  \"started\": " << (run.started ? "true" : "false")
        << ",\n  \"finished\": " << (run.finished ? "true" : "false");
    if (run.started) {
      const double run_seconds =
          run.finished ? run.wall_seconds
                       : std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run.start_time)
                             .count();
      out << ",\n  \"run\": {\"dataset\": \"" << json::Escape(run.info.dataset)
          << "\", \"model\": \"" << json::Escape(run.info.model)
          << "\", \"max_epochs\": " << run.info.max_epochs
          << ", \"train_size\": " << run.info.train_size
          << ", \"aux_heads\": " << (run.info.has_aux_heads ? "true" : "false")
          << ", \"resumed\": " << (run.info.resumed ? "true" : "false")
          << "}";
      out << ",\n  \"epoch\": " << run.epoch << ",\n  \"step\": " << run.step
          << ",\n  \"lr\": " << JsonDouble(run.lr)
          << ",\n  \"grad_norm\": " << JsonDouble(run.grad_norm)
          << ",\n  \"update_ratio\": " << JsonDouble(run.update_ratio)
          << ",\n  \"run_seconds\": " << JsonDouble(run_seconds)
          << ",\n  \"epoch_loss\": {\"em\": ";
      AppendJsonDoubles(&out, run.epoch_loss_em);
      out << ", \"id1\": ";
      AppendJsonDoubles(&out, run.epoch_loss_id1);
      out << ", \"id2\": ";
      AppendJsonDoubles(&out, run.epoch_loss_id2);
      out << "},\n  \"eval\": {\"f1\": ";
      AppendJsonDoubles(&out, run.eval_f1);
      out << ", \"precision\": ";
      AppendJsonDoubles(&out, run.eval_precision);
      out << ", \"recall\": ";
      AppendJsonDoubles(&out, run.eval_recall);
      out << "},\n  \"recent_steps\": {\"count\": " << run.recent.size();
      AppendRecentSeries(&out, "loss_em", run.recent, &StepPoint::loss_em);
      AppendRecentSeries(&out, "loss_id1", run.recent, &StepPoint::loss_id1);
      AppendRecentSeries(&out, "loss_id2", run.recent, &StepPoint::loss_id2);
      AppendRecentSeries(&out, "step_ms", run.recent, &StepPoint::step_ms);
      out << "}";
    }
    out << ",\n  \"sentinels\": {\"nonfinite_losses\": "
        << NonfiniteLossCounter().Value()
        << ", \"nonfinite_grads\": " << NonfiniteGradCounter().Value()
        << ", \"last_offender\": \"" << json::Escape(run.last_offender)
        << "\", \"nan_abort\": " << (NanAbort() ? "true" : "false") << "}";
    out << ",\n  \"attn_stats\": " << (AttnStatsEnabled() ? "true" : "false");
    out << ",\n  \"event_log\": ";
    if (event_log_path.empty()) {
      out << "null";
    } else {
      out << '"' << json::Escape(event_log_path) << '"';
    }
    out << ",\n  \"last_checkpoint\": ";
    if (run.checkpoint.has_value()) {
      out << "{\"path\": \"" << json::Escape(run.checkpoint->path)
          << "\", \"epoch\": " << run.checkpoint->epoch
          << ", \"unix_seconds\": "
          << JsonDouble(run.checkpoint->unix_seconds) << "}";
    } else {
      out << "null";
    }
  }
  out << "\n}\n";
  http::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = out.str();
  return resp;
}

namespace {

// Mounting /trainz at static-init time, in the same translation unit as the
// symbols the trainer calls — the static-library linker can't pull the
// trainer wiring without also running this registrar.
struct TrainzRegistrar {
  TrainzRegistrar() {
    RegisterObservabilityEndpoint("/trainz", &HandleTrainzRequest);
  }
};
TrainzRegistrar g_trainz_registrar;

}  // namespace

// ---------------------------------------------------------------------------
// Test hooks

void ResetTrainObsForTest() {
  {
    LogState& log = GetLogState();
    std::lock_guard<std::mutex> lock(log.mutex);
    CloseLogLocked(&log);
  }
  GetGrouping() = ModuleGrouping();
  RunStatus& status = GetRunStatus();
  std::lock_guard<std::mutex> lock(status.mutex);
  status.run = Run();
}

}  // namespace train_obs
}  // namespace emba
