#include "util/observability.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "util/env.h"
#include "util/http_server.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/profiler.h"
#include "util/request_trace.h"
#include "util/trace.h"

namespace emba {
namespace {

std::once_flag g_atexit_once;

void RegisterFlushAtExit() {
  std::call_once(g_atexit_once, [] { std::atexit(FlushObservability); });
}

// The files FlushObservability writes (--metrics-out / EMBA_METRICS_OUT,
// --trace-out / EMBA_TRACE_OUT); empty = not written.
struct OutputPaths {
  std::mutex mutex;
  std::string metrics;
  std::string trace;
};

OutputPaths& Outputs() {
  static OutputPaths* paths = new OutputPaths();  // leaked: read at exit
  return *paths;
}

}  // namespace

// ---------------------------------------------------------------------------
// Health state

namespace {

std::atomic<int> g_health_state{static_cast<int>(HealthState::kStarting)};
// Nanoseconds on the steady clock of the last heartbeat; -1 = never.
std::atomic<int64_t> g_heartbeat_ns{-1};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void SetHealthState(HealthState state) {
  g_health_state.store(static_cast<int>(state), std::memory_order_relaxed);
}

HealthState GetHealthState() {
  return static_cast<HealthState>(
      g_health_state.load(std::memory_order_relaxed));
}

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kStarting: return "starting";
    case HealthState::kTraining: return "training";
    case HealthState::kScoring: return "scoring";
    case HealthState::kDraining: return "draining";
  }
  return "unknown";
}

void HealthHeartbeat() {
  g_heartbeat_ns.store(SteadyNowNs(), std::memory_order_relaxed);
}

double HealthHeartbeatAgeSeconds() {
  const int64_t last = g_heartbeat_ns.load(std::memory_order_relaxed);
  if (last < 0) return -1.0;
  return static_cast<double>(SteadyNowNs() - last) * 1e-9;
}

// ---------------------------------------------------------------------------
// Endpoint handlers

namespace {

// Extra endpoints mounted by higher layers (RegisterObservabilityEndpoint).
struct ExtraEndpoints {
  std::mutex mutex;
  // Ordered map: the `/` index listing is deterministic.
  std::map<std::string, std::function<http::HttpResponse(
                            const http::HttpRequest&)>>
      handlers;
};

ExtraEndpoints& GetExtraEndpoints() {
  static ExtraEndpoints* endpoints = new ExtraEndpoints();
  return *endpoints;
}

http::HttpResponse JsonResponse(std::string body) {
  http::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

http::HttpResponse HandleMetrics(const http::HttpRequest&) {
  metrics::SampleProcessGauges();
  http::HttpResponse resp;
  resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
  resp.body = metrics::Registry::Global().ToPrometheus();
  return resp;
}

http::HttpResponse HandleMetricsJson(const http::HttpRequest&) {
  metrics::SampleProcessGauges();
  return JsonResponse(metrics::Registry::Global().ToJson());
}

http::HttpResponse HandleHealthz(const http::HttpRequest&) {
  const HealthState state = GetHealthState();
  const metrics::ProcessStats stats = metrics::GetProcessStats();
  const double beat_age = HealthHeartbeatAgeSeconds();
  std::ostringstream out;
  out << "{\"state\": \"" << HealthStateName(state) << "\", "
      << "\"heartbeat_age_seconds\": "
      << (beat_age < 0 ? "null" : json::NumberToString(beat_age))
      << ", \"uptime_seconds\": " << json::NumberToString(stats.uptime_seconds)
      << ", \"rss_bytes\": " << stats.rss_bytes
      << ", \"threads\": " << stats.threads << "}\n";
  http::HttpResponse resp = JsonResponse(out.str());
  // Draining is the one state a load balancer should treat as "stop sending
  // work here"; everything else (including starting) answers 200.
  resp.status = state == HealthState::kDraining ? 503 : 200;
  return resp;
}

constexpr size_t kTracezEvents = 256;

http::HttpResponse HandleTracez(const http::HttpRequest&) {
  return JsonResponse(trace::RecentEventsJson(kTracezEvents));
}

http::HttpResponse HandleProfilez(const http::HttpRequest& req) {
  http::HttpResponse resp;
  const std::string seconds_str = http::QueryParam(req.query, "seconds", "2");
  char* end = nullptr;
  const double seconds = std::strtod(seconds_str.c_str(), &end);
  if (end == seconds_str.c_str() || *end != '\0') {
    resp.status = 400;
    resp.body = "bad seconds parameter: " + seconds_str + "\n";
    return resp;
  }
  const std::string clock_str = http::QueryParam(req.query, "clock", "cpu");
  prof::ProfileClock clock;
  if (clock_str == "cpu") {
    clock = prof::ProfileClock::kCpu;
  } else if (clock_str == "wall") {
    clock = prof::ProfileClock::kWall;
  } else {
    resp.status = 400;
    resp.body = "bad clock parameter (want cpu|wall): " + clock_str + "\n";
    return resp;
  }
  Result<std::string> profile = prof::CollectProfile(seconds, clock);
  if (!profile.ok()) {
    resp.status = profile.status().code() == StatusCode::kFailedPrecondition
                      ? 503
                      : 400;
    resp.body = profile.status().ToString() + "\n";
    return resp;
  }
  resp.body = *profile;
  if (resp.body.empty()) {
    resp.body = "# no samples (idle process on the cpu clock? try "
                "clock=wall)\n";
  }
  return resp;
}

// ---------------------------------------------------------------------------
// /rpcz — request-scoped tracing surface (util/request_trace)

void AppendRecordJson(std::ostringstream* out,
                      const rtrace::RequestRecord& rec) {
  *out << "{\"trace_id\": \"" << rec.trace_id_hex << "\", \"endpoint\": \""
       << json::Escape(rec.endpoint) << "\", \"status\": " << rec.status
       << ", \"in_flight\": " << (rec.in_flight ? "true" : "false")
       << ", \"error\": " << (rec.error ? "true" : "false")
       << ", \"start_unix_seconds\": "
       << json::NumberToString(rec.start_unix_seconds)
       << ", \"e2e_ms\": " << json::NumberToString(rec.e2e_ms)
       << ", \"stages_ms\": {";
  for (int s = 0; s < rtrace::kStageCount; ++s) {
    if (s > 0) *out << ", ";
    *out << "\"" << rtrace::StageName(static_cast<rtrace::Stage>(s))
         << "\": " << json::NumberToString(rec.stage_ms[s]);
  }
  *out << ", \"other\": " << json::NumberToString(rec.other_ms) << "}";
  if (rec.has_batch) {
    *out << ", \"batch\": {\"id\": " << rec.batch_id
         << ", \"size\": " << rec.batch_size << ", \"fire_reason\": \""
         << json::Escape(rec.fire_reason)
         << "\", \"compute_ms\": " << json::NumberToString(rec.batch_compute_ms)
         << ", \"int8\": " << (rec.int8_active ? "true" : "false")
         << ", \"sibling_trace_ids\": [";
    for (size_t i = 0; i < rec.sibling_trace_ids.size(); ++i) {
      if (i > 0) *out << ", ";
      *out << "\"" << rec.sibling_trace_ids[i] << "\"";
    }
    *out << "]}";
  }
  *out << "}";
}

http::HttpResponse HandleRpcz(const http::HttpRequest& req) {
  std::ostringstream out;

  // Single-request lookup. 404 when the id was never retained — the
  // tail-sampling policy is allowed to have dropped it.
  const std::string trace_id = http::QueryParam(req.query, "trace_id");
  if (!trace_id.empty()) {
    rtrace::RequestRecord rec;
    if (!rtrace::FindRetainedHex(trace_id, &rec)) {
      http::HttpResponse resp = JsonResponse(
          "{\"error\": \"trace id not retained: " + json::Escape(trace_id) +
          "\"}\n");
      resp.status = 404;
      return resp;
    }
    AppendRecordJson(&out, rec);
    out << "\n";
    return JsonResponse(out.str());
  }

  const std::vector<rtrace::RequestRecord> in_flight =
      rtrace::SnapshotInFlight();
  const std::vector<rtrace::RequestRecord> retained =
      rtrace::SnapshotRetained();
  out << "{\"tracing\": " << (rtrace::Enabled() ? "true" : "false")
      << ", \"slowest_k\": " << rtrace::SlowestK() << ", \"in_flight\": [";
  for (size_t i = 0; i < in_flight.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  ";
    AppendRecordJson(&out, in_flight[i]);
  }
  out << (in_flight.empty() ? "]" : "\n]") << ", \"retained\": [";
  for (size_t i = 0; i < retained.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "  ";
    AppendRecordJson(&out, retained[i]);
  }
  out << (retained.empty() ? "]" : "\n]") << "}\n";
  return JsonResponse(out.str());
}

// ---------------------------------------------------------------------------
// /buildz — build + runtime provenance

#ifndef EMBA_GIT_SHA
#define EMBA_GIT_SHA "unknown"
#endif

struct BuildzSections {
  std::mutex mutex;
  // Ordered map: /buildz output is diffable across scrapes.
  std::map<std::string, std::function<std::string()>> providers;
};

BuildzSections& GetBuildzSections() {
  static BuildzSections* sections = new BuildzSections();
  return *sections;
}

http::HttpResponse HandleBuildz(const http::HttpRequest&) {
  std::ostringstream out;
  const metrics::ProcessStats stats = metrics::GetProcessStats();
  const double now_unix =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  out << "{\"git_sha\": \"" << json::Escape(EMBA_GIT_SHA)
      << "\", \"compiler\": \"" << json::Escape(__VERSION__)
      << "\", \"start_time_unix_seconds\": "
      << json::NumberToString(now_unix - stats.uptime_seconds)
      << ", \"uptime_seconds\": " << json::NumberToString(stats.uptime_seconds)
      << ", \"env\": {";
  // Every env knob the codebase reads (util/env.h), with its live value, so
  // "what was this process actually configured with" has one answer.
  for (int i = 0; i < static_cast<int>(env::Knob::kCount); ++i) {
    const env::Knob knob = static_cast<env::Knob>(i);
    out << (i == 0 ? "" : ", ") << "\"" << env::Name(knob) << "\": ";
    if (const char* value = env::Raw(knob)) {
      out << '"' << json::Escape(value) << '"';
    } else {
      out << "null";
    }
  }
  out << "}";
  {
    BuildzSections& sections = GetBuildzSections();
    std::lock_guard<std::mutex> lock(sections.mutex);
    for (const auto& entry : sections.providers) {
      out << ", \"" << json::Escape(entry.first) << "\": \""
          << json::Escape(entry.second()) << '"';
    }
  }
  out << "}\n";
  return JsonResponse(out.str());
}

http::HttpResponse HandleIndex(const http::HttpRequest&);

// The built-in endpoints. Dispatch, the shadowing check of
// RegisterObservabilityEndpoint, the `/` index and the server's startup log
// line all read this one table.
constexpr struct {
  const char* path;
  http::HttpResponse (*handler)(const http::HttpRequest&);
} kEndpoints[] = {
    {"/", &HandleIndex},
    {"/metrics", &HandleMetrics},
    {"/metrics.json", &HandleMetricsJson},
    {"/healthz", &HandleHealthz},
    {"/tracez", &HandleTracez},
    {"/profilez", &HandleProfilez},
    {"/rpcz", &HandleRpcz},
    {"/buildz", &HandleBuildz},
};

// Built-in paths in table order, then registered extras in path order.
std::vector<std::string> EndpointPaths() {
  std::vector<std::string> paths;
  for (const auto& endpoint : kEndpoints) paths.emplace_back(endpoint.path);
  ExtraEndpoints& extra = GetExtraEndpoints();
  std::lock_guard<std::mutex> lock(extra.mutex);
  for (const auto& entry : extra.handlers) paths.push_back(entry.first);
  return paths;
}

http::HttpResponse HandleIndex(const http::HttpRequest&) {
  std::ostringstream out;
  out << "{\"endpoints\": [";
  const std::vector<std::string> paths = EndpointPaths();
  for (size_t i = 0; i < paths.size(); ++i) {
    out << (i == 0 ? "\"" : ", \"") << json::Escape(paths[i]) << '"';
  }
  out << "]}\n";
  return JsonResponse(out.str());
}

http::HttpResponse DispatchRequest(const http::HttpRequest& req) {
  static metrics::Counter& requests = metrics::GetCounter("obs.http_requests");
  requests.Increment();
  if (req.method != "GET") {
    http::HttpResponse resp;
    resp.status = 405;
    resp.body = "observability endpoints are GET-only\n";
    return resp;
  }
  for (const auto& endpoint : kEndpoints) {
    if (req.path == endpoint.path) return endpoint.handler(req);
  }
  {
    // Registered extras (/trainz, ...). The handler is copied out so a
    // concurrent re-registration cannot invalidate it mid-call.
    ExtraEndpoints& extra = GetExtraEndpoints();
    std::function<http::HttpResponse(const http::HttpRequest&)> handler;
    {
      std::lock_guard<std::mutex> lock(extra.mutex);
      auto it = extra.handlers.find(req.path);
      if (it != extra.handlers.end()) handler = it->second;
    }
    if (handler) return handler(req);
  }
  http::HttpResponse resp;
  resp.status = 404;
  resp.body = "not found: " + req.path + "\n";
  return resp;
}

}  // namespace

http::HttpResponse HandleObservabilityRequest(const http::HttpRequest& req) {
  return DispatchRequest(req);
}

void AddBuildzSection(const std::string& key,
                      std::function<std::string()> provider) {
  BuildzSections& sections = GetBuildzSections();
  std::lock_guard<std::mutex> lock(sections.mutex);
  sections.providers[key] = std::move(provider);
}

void RegisterObservabilityEndpoint(
    const std::string& path,
    std::function<http::HttpResponse(const http::HttpRequest&)> handler) {
  EMBA_CHECK_MSG(!path.empty() && path[0] == '/',
                 "endpoint path must start with '/'");
  // Built-ins are dispatched before the extras, so shadowing one here would
  // silently never fire — reject it loudly instead.
  for (const auto& endpoint : kEndpoints) {
    EMBA_CHECK_MSG(path != endpoint.path,
                   "cannot shadow built-in observability endpoint");
  }
  ExtraEndpoints& extra = GetExtraEndpoints();
  std::lock_guard<std::mutex> lock(extra.mutex);
  extra.handlers[path] = std::move(handler);
}

// ---------------------------------------------------------------------------
// Observability server lifecycle

namespace {

std::mutex g_server_mutex;
std::unique_ptr<http::HttpServer> g_server;
// Mirror of g_server's liveness for the lock-free Running() fast path —
// the trainer polls it once per step.
std::atomic<bool> g_server_running{false};

}  // namespace

Status StartObservabilityServer(int port) {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  if (g_server != nullptr && g_server->Running()) {
    return Status::FailedPrecondition(
        "observability server already running on port " +
        std::to_string(g_server->port()));
  }
  auto server = std::make_unique<http::HttpServer>(&DispatchRequest);
  EMBA_RETURN_NOT_OK(server->Start(port));
  g_server = std::move(server);
  g_server_running.store(true, std::memory_order_release);
  std::string paths;
  for (const std::string& path : EndpointPaths()) paths += " " + path;
  EMBA_LOG(INFO) << "observability server listening on port "
                 << g_server->port() << " (" << paths.substr(1) << ")";
  return Status::OK();
}

void StopObservabilityServer() {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  g_server_running.store(false, std::memory_order_release);
  if (g_server != nullptr) {
    g_server->Stop();
    g_server.reset();
  }
}

bool ObservabilityServerRunning() {
  return g_server_running.load(std::memory_order_relaxed);
}

int ObservabilityServerPort() {
  std::lock_guard<std::mutex> lock(g_server_mutex);
  return g_server != nullptr && g_server->Running() ? g_server->port() : 0;
}

// ---------------------------------------------------------------------------
// Init / flush

void InitObservabilityFromEnv() {
  // Env-driven wiring must never abort a run: malformed values warn and are
  // ignored, and a failed open or bind (port taken) is reported but
  // non-fatal.
  if (auto path = env::ReadString(env::Knob::kMetricsOut)) {
    EnableMetricsOutput(*path);
  }
  if (auto path = env::ReadString(env::Knob::kTraceOut)) {
    EnableTraceOutput(*path);
  }
  if (auto on = env::ReadBool(env::Knob::kRtrace)) rtrace::SetEnabled(*on);
  if (auto path = env::ReadString(env::Knob::kAccessLog)) {
    Status status = rtrace::SetAccessLogPath(*path);
    if (status.ok()) {
      rtrace::SetEnabled(true);  // a log with tracing off would stay empty
      RegisterFlushAtExit();
    } else {
      EMBA_LOG(WARN) << "EMBA_ACCESS_LOG open failed: " << status;
    }
  }
  if (auto port = env::ReadInt(env::Knob::kObsPort, 0, 65535)) {
    Status status = StartObservabilityServer(static_cast<int>(*port));
    if (!status.ok()) {
      EMBA_LOG(WARN) << "EMBA_OBS_PORT server start failed: " << status;
    }
  }
}

void EnableMetricsOutput(const std::string& path) {
  if (path.empty()) return;
  {
    std::lock_guard<std::mutex> lock(Outputs().mutex);
    Outputs().metrics = path;
  }
  metrics::SetEnabled(true);
  RegisterFlushAtExit();
}

void EnableTraceOutput(const std::string& path) {
  if (path.empty()) return;
  {
    std::lock_guard<std::mutex> lock(Outputs().mutex);
    Outputs().trace = path;
  }
  trace::Start();
  RegisterFlushAtExit();
}

void FlushObservability() {
  SetHealthState(HealthState::kDraining);
  std::string metrics_path, trace_path;
  {
    std::lock_guard<std::mutex> lock(Outputs().mutex);
    metrics_path = Outputs().metrics;
    trace_path = Outputs().trace;
  }
  if (!metrics_path.empty()) {
    Status status = metrics::DumpMetricsJson(metrics_path);
    if (!status.ok()) EMBA_LOG(WARN) << "metrics flush failed: " << status;
  }
  if (!trace_path.empty()) {
    Status status = trace::WriteJson(trace_path);
    if (!status.ok()) EMBA_LOG(WARN) << "trace flush failed: " << status;
  }
  Status access_log_status = rtrace::FlushAccessLog();
  if (!access_log_status.ok()) {
    EMBA_LOG(WARN) << "access log flush failed: " << access_log_status;
  }
}

}  // namespace emba
