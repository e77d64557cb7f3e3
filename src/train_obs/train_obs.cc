#include "train_obs/train_obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>

#include "train_obs/run_status.h"
#include "util/atomic_file.h"
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

std::string UnixNowJson() {
  return json::NumberToString(
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
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
  *out << "{\"em\": " << internal::JsonDouble(em)
       << ", \"id1\": " << internal::JsonDouble(id1)
       << ", \"id2\": " << internal::JsonDouble(id2) << "}";
}

void AppendNamedDoubles(
    std::ostringstream* out, const char* key,
    const std::vector<std::pair<std::string, double>>& values) {
  *out << ", \"" << key << "\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << '"' << json::Escape(values[i].first)
         << "\": " << internal::JsonDouble(values[i].second);
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

struct RunStatus {
  std::mutex mutex;
  bool started = false;
  bool finished = false;
  RunInfo info;
  int64_t epoch = 0;
  int64_t step = 0;
  double lr = 0.0;
  double grad_norm = 0.0;
  double update_ratio = 0.0;
  std::chrono::steady_clock::time_point start_time;
  std::vector<double> epoch_loss_em, epoch_loss_id1, epoch_loss_id2;
  std::vector<double> eval_f1, eval_precision, eval_recall;
  std::deque<internal::StepPoint> recent;
  std::string last_offender;
};

RunStatus& GetRunStatus() {
  static RunStatus* status = new RunStatus();
  return *status;
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

namespace {

bool EnvFlagOn(const char* value) {
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
         std::strcmp(value, "on") == 0;
}

bool EnvFlagOff(const char* value) {
  return value[0] == '\0' || std::strcmp(value, "0") == 0 ||
         std::strcmp(value, "false") == 0 || std::strcmp(value, "off") == 0;
}

}  // namespace

void InitTrainObsFromEnv() {
  if (const char* env = std::getenv("EMBA_TRAIN_EVENTS")) {
    if (env[0] != '\0') SetEventLogPath(env);
  }
  if (const char* env = std::getenv("EMBA_NAN_ABORT")) {
    if (EnvFlagOn(env)) {
      SetNanAbort(true);
    } else if (!EnvFlagOff(env)) {
      EMBA_LOG(WARN) << "ignoring bad EMBA_NAN_ABORT value: " << env;
    }
  }
  if (const char* env = std::getenv("EMBA_ATTN_STATS")) {
    if (EnvFlagOn(env)) {
      SetAttnStatsEnabled(true);
    } else if (!EnvFlagOff(env)) {
      EMBA_LOG(WARN) << "ignoring bad EMBA_ATTN_STATS value: " << env;
    }
  }
}

// ---------------------------------------------------------------------------
// Run lifecycle

Status StartRun(const RunInfo& info) {
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.started = true;
    status.finished = false;
    status.info = info;
    status.epoch = info.resume_epoch;
    status.step = info.resume_step;
    status.lr = 0.0;
    status.grad_norm = 0.0;
    status.update_ratio = 0.0;
    status.start_time = std::chrono::steady_clock::now();
    status.epoch_loss_em.clear();
    status.epoch_loss_id1.clear();
    status.epoch_loss_id2.clear();
    status.eval_f1.clear();
    status.eval_precision.clear();
    status.eval_recall.clear();
    status.recent.clear();
    status.last_offender.clear();
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
    if (!status.started) return;
    status.finished = true;
    run_seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - status.start_time)
                      .count();
  }
  std::ostringstream out = EventHead("run_end");
  out << ", \"epochs_ran\": " << epochs_ran
      << ", \"best_valid_f1\": " << internal::JsonDouble(best_valid_f1)
      << ", \"test_f1\": " << internal::JsonDouble(test_f1)
      << ", \"wall_seconds\": " << internal::JsonDouble(run_seconds)
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
    status.step = event.step + 1;  // steps completed
    status.epoch = event.epoch;
    status.lr = event.lr;
    status.grad_norm = event.grad_norm;
    status.update_ratio = event.update_ratio;
    internal::StepPoint point;
    point.step = event.step;
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
    status.recent.push_back(point);
    if (status.recent.size() > kRecentSteps) status.recent.pop_front();
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
      << "}, \"lr\": " << internal::JsonDouble(event.lr)
      << ", \"grad_norm\": " << internal::JsonDouble(event.grad_norm)
      << ", \"update_ratio\": " << internal::JsonDouble(event.update_ratio)
      << ", \"step_ms\": " << internal::JsonDouble(event.step_ms);
  AppendNamedDoubles(&out, "grad_norms", event.module_grad_norms);
  AppendNamedDoubles(&out, "update_ratios", event.module_update_ratios);
  out << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogEpoch(const EpochEvent& event) {
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.epoch = event.epoch;
    if (event.n_em > 0) {
      status.epoch_loss_em.push_back(event.loss_em /
                                     static_cast<double>(event.n_em));
    }
    if (event.n_id1 > 0) {
      status.epoch_loss_id1.push_back(event.loss_id1 /
                                      static_cast<double>(event.n_id1));
    }
    if (event.n_id2 > 0) {
      status.epoch_loss_id2.push_back(event.loss_id2 /
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
      << "}, \"epoch_seconds\": " << internal::JsonDouble(event.epoch_seconds)
      << ", \"heap_allocs\": " << event.heap_allocs
      << ", \"parallel_for_calls\": " << event.parallel_for_calls
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogEval(const EvalEvent& event) {
  if (event.split == "valid") {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    status.eval_f1.push_back(event.f1);
    status.eval_precision.push_back(event.precision);
    status.eval_recall.push_back(event.recall);
  }
  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("eval");
  out << ", \"epoch\": " << event.epoch << ", \"step\": " << event.step
      << ", \"split\": \"" << json::Escape(event.split)
      << "\", \"f1\": " << internal::JsonDouble(event.f1)
      << ", \"precision\": " << internal::JsonDouble(event.precision)
      << ", \"recall\": " << internal::JsonDouble(event.recall)
      << ", \"id1_accuracy\": " << internal::JsonDouble(event.id1_accuracy)
      << ", \"id2_accuracy\": " << internal::JsonDouble(event.id2_accuracy)
      << ", \"improved\": " << (event.improved ? "true" : "false")
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

void LogCheckpoint(const CheckpointEvent& event) {
  if (!EventLogConfigured()) return;
  std::ostringstream out = EventHead("checkpoint");
  out << ", \"epoch\": " << event.epoch << ", \"step\": " << event.step
      << ", \"path\": \"" << json::Escape(event.path)
      << "\", \"bytes\": " << event.bytes
      << ", \"write_ms\": " << internal::JsonDouble(event.write_ms)
      << ", \"ts_unix\": " << UnixNowJson() << "}\n";
  WriteEventLine(out.str());
}

// ---------------------------------------------------------------------------
// Numerics sentinels

namespace {

std::string TopLevelModule(const std::string& param_name) {
  const size_t dot = param_name.find('.');
  return dot == std::string::npos ? param_name : param_name.substr(0, dot);
}

void RecordOffender(const std::string& offender) {
  RunStatus& status = GetRunStatus();
  std::lock_guard<std::mutex> lock(status.mutex);
  status.last_offender = offender;
}

}  // namespace

GradObservation ObserveGradients(
    const std::vector<std::pair<const std::string*, const Tensor*>>& grads) {
  GradObservation obs;
  // Per-module Σ‖g‖² in a flat vector — top-level module counts are tiny
  // (encoder + a few heads), so linear search beats a map.
  std::vector<std::pair<std::string, double>> modules;
  double total_sq = 0.0;
  for (const auto& [name, grad] : grads) {
    if (grad == nullptr || grad->size() == 0) continue;
    const double norm = static_cast<double>(grad->Norm());
    if (!std::isfinite(norm) && !obs.nonfinite) {
      obs.nonfinite = true;
      obs.offender = *name;
    }
    const double sq = norm * norm;
    total_sq += sq;
    const std::string module = TopLevelModule(*name);
    bool found = false;
    for (auto& entry : modules) {
      if (entry.first == module) {
        entry.second += sq;
        found = true;
        break;
      }
    }
    if (!found) modules.emplace_back(module, sq);
  }
  obs.global_norm = std::sqrt(total_sq);
  std::sort(modules.begin(), modules.end());
  obs.module_norms.reserve(modules.size());
  for (const auto& [module, sq] : modules) {
    obs.module_norms.emplace_back(module, std::sqrt(sq));
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
// /trainz wiring + snapshot

namespace internal {

std::string JsonDouble(double v) {
  if (std::isfinite(v)) return json::NumberToString(v);
  if (std::isnan(v)) return "\"nan\"";
  return v > 0 ? "\"inf\"" : "\"-inf\"";
}

RunStatusSnapshot SnapshotRunStatus() {
  RunStatusSnapshot snap;
  {
    RunStatus& status = GetRunStatus();
    std::lock_guard<std::mutex> lock(status.mutex);
    snap.started = status.started;
    snap.finished = status.finished;
    snap.info = status.info;
    snap.epoch = status.epoch;
    snap.step = status.step;
    snap.lr = status.lr;
    snap.grad_norm = status.grad_norm;
    snap.update_ratio = status.update_ratio;
    if (status.started && !status.finished) {
      snap.run_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() -
                             status.start_time)
                             .count();
    }
    snap.epoch_loss_em = status.epoch_loss_em;
    snap.epoch_loss_id1 = status.epoch_loss_id1;
    snap.epoch_loss_id2 = status.epoch_loss_id2;
    snap.eval_f1 = status.eval_f1;
    snap.eval_precision = status.eval_precision;
    snap.eval_recall = status.eval_recall;
    snap.recent_steps.assign(status.recent.begin(), status.recent.end());
    snap.last_offender = status.last_offender;
  }
  snap.nonfinite_losses = NonfiniteLossCounter().Value();
  snap.nonfinite_grads = NonfiniteGradCounter().Value();
  snap.nan_abort = NanAbort();
  snap.attn_stats = AttnStatsEnabled();
  snap.event_log_path = EventLogPath();
  return snap;
}

}  // namespace internal

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
  RunStatus& status = GetRunStatus();
  std::lock_guard<std::mutex> lock(status.mutex);
  status.started = false;
  status.finished = false;
  status.info = RunInfo();
  status.epoch = 0;
  status.step = 0;
  status.lr = 0.0;
  status.grad_norm = 0.0;
  status.update_ratio = 0.0;
  status.epoch_loss_em.clear();
  status.epoch_loss_id1.clear();
  status.epoch_loss_id2.clear();
  status.eval_f1.clear();
  status.eval_precision.clear();
  status.eval_recall.clear();
  status.recent.clear();
  status.last_offender.clear();
}

}  // namespace train_obs
}  // namespace emba
