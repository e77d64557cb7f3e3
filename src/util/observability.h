// One-call wiring of the metrics registry (util/metrics), the span tracer
// (util/trace) and the live observability server (util/http_server) for
// binaries: reads EMBA_METRICS_OUT / EMBA_TRACE_OUT / EMBA_OBS_PORT,
// registers an atexit flush, and offers explicit overrides for CLI flags
// (--metrics-out / --trace-out / --serve-obs).
//
// Live endpoints (DESIGN.md §11 has the full table):
//   /              tiny HTML index linking the endpoints below
//   /metrics       Prometheus text exposition (counters, gauges, histograms)
//   /metrics.json  the registry's JSON dump (same bytes as --metrics-out)
//   /healthz       run-state + heartbeat age; 200 while live, 503 draining
//   /tracez        recent spans; HTML by default, ?format=json for machines
//   /profilez      on-demand sampling profile; ?seconds=N&clock=cpu|wall
//   /rpcz          in-flight + retained slowest/errored requests with their
//                  per-stage breakdowns (util/request_trace); ?format=json,
//                  ?trace_id=<hex> for a single-request lookup
//   /buildz        build + runtime provenance: git SHA, compiler, process
//                  start time, EMBA_* knobs, plus sections registered by
//                  higher layers (SIMD backend, int8 mode, arena)
//
// Everything here is opt-in: with no server started, no thread is spawned,
// no socket is opened, and the hot-path cost of metrics/trace
// instrumentation is exactly what it was before this header existed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/http_server.h"
#include "util/status.h"

namespace emba {

/// Applies EMBA_METRICS_OUT / EMBA_TRACE_OUT (enabling the respective
/// subsystem when set) and EMBA_OBS_PORT (starting the observability
/// server), and registers FlushObservability with atexit, so every exit
/// path — including Fail()-style early returns — still writes the
/// configured files.
/// Malformed env values log a warning and are ignored (env wiring must not
/// abort a training run). Idempotent.
void InitObservabilityFromEnv();

/// Explicit enablement (CLI flags); either path may be empty. Overrides the
/// env-derived paths and ensures the atexit flush is registered.
void EnableMetricsOutput(const std::string& path);
void EnableTraceOutput(const std::string& path);

/// Writes the metrics JSON and trace JSON to their configured paths (no-op
/// for unconfigured subsystems) and marks the health state kDraining. Logs
/// a warning on write failure; safe to call repeatedly.
void FlushObservability();

// ---------------------------------------------------------------------------
// Health state

/// Coarse process run-state, published by the trainer / dedupe pipeline and
/// served by /healthz. Plain atomic underneath — Set/Get are wait-free.
enum class HealthState {
  kStarting = 0,  ///< process up, work not yet begun
  kTraining = 1,
  kScoring = 2,
  kDraining = 3,  ///< shutting down / flushing
};

void SetHealthState(HealthState state);
HealthState GetHealthState();
const char* HealthStateName(HealthState state);

/// Stamps the health heartbeat "now". Call from long-running loops (the
/// trainer stamps once per step, gated on ObservabilityServerRunning() so
/// the disabled-server hot path is untouched).
void HealthHeartbeat();

/// Seconds since the last HealthHeartbeat(); -1 when none was ever stamped.
double HealthHeartbeatAgeSeconds();

// ---------------------------------------------------------------------------
// Training progress (published by core::Trainer, served on /healthz and
// /trainz so drain/resume tooling never has to parse log lines)

struct TrainProgress {
  bool valid = false;  ///< false until the first SetTrainProgress
  int64_t epoch = 0;
  int64_t step = 0;
};

/// Stamps the current epoch/step. Two relaxed atomic stores — cheap enough
/// for once-per-step, but the trainer still gates it on telemetry being on.
void SetTrainProgress(int64_t epoch, int64_t step);
TrainProgress GetTrainProgress();

struct LastCheckpointInfo {
  bool valid = false;  ///< false until the first SetLastCheckpoint
  std::string path;
  int64_t epoch = 0;          ///< epochs completed at the save
  double unix_seconds = 0.0;  ///< wall time of the save
};

/// Records the most recent successful checkpoint publish (mutex-protected;
/// called at epoch boundaries, never on the step path).
void SetLastCheckpoint(const std::string& path, int64_t epoch);
LastCheckpointInfo GetLastCheckpoint();

/// Clears train progress and last-checkpoint info (test isolation).
void ResetTrainStateForTest();

// ---------------------------------------------------------------------------
// Observability server

/// Starts the HTTP server on `port` (0 = ephemeral; query the bound port
/// with ObservabilityServerPort). Fails with IOError when the port is in
/// use. At most one server per process; a second Start without a Stop is
/// FailedPrecondition.
Status StartObservabilityServer(int port);

/// Stops the server and joins its listener thread. Idempotent.
void StopObservabilityServer();

bool ObservabilityServerRunning();

/// Bound port of the running server; 0 when not running.
int ObservabilityServerPort();

/// Routes one request through the observability endpoint table (/metrics,
/// /metrics.json, /healthz, /tracez, /profilez, /rpcz, /buildz, the index;
/// 404 otherwise; 405 for non-GET). The observability server's own handler
/// — exported so other servers (the matching service) can serve the same
/// endpoints on their port instead of running a second listener.
http::HttpResponse HandleObservabilityRequest(const http::HttpRequest& req);

/// Registers a /buildz section: `provider` is invoked on every /buildz
/// request and its return value rendered under `key`. This is how layers
/// util cannot depend on (tensor: SIMD backend, int8 mode, arena config)
/// surface their build/runtime facts — same inversion as AddScrapeSampler.
/// Registering the same key again replaces the provider (safe to call from
/// multiple service instances). Providers must be cheap and thread-safe.
void AddBuildzSection(const std::string& key,
                      std::function<std::string()> provider);

/// Registers an extra GET endpoint on the observability endpoint table —
/// the same dependency inversion as AddBuildzSection, for whole endpoints:
/// layers util cannot link mount their surface here (train_obs mounts
/// /trainz). `path` must start with '/'; built-in endpoints cannot be
/// shadowed; re-registering a path replaces its handler. Handlers must be
/// thread-safe; they run on the server's request threads. Registered
/// endpoints appear on the index page.
void RegisterObservabilityEndpoint(
    const std::string& path,
    std::function<http::HttpResponse(const http::HttpRequest&)> handler);

}  // namespace emba
