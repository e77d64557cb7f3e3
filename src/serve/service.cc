#include "serve/service.h"

#include <csignal>
#include <algorithm>
#include <cmath>
#include <future>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/scoring.h"
#include "pipeline/dedupe.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/request_trace.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace emba {
namespace serve {

namespace {

http::HttpResponse JsonError(int status, const std::string& message) {
  http::HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = "{\"error\": \"" + json::Escape(message) + "\"}\n";
  return resp;
}

// 429/503 carry a Retry-After hint — per RFC 9110 a non-negative integer
// number of seconds, so sub-second (or zero/misconfigured-negative) batch
// deadlines must round UP to the 1 s floor, never down to 0 or below.
// The two statuses hint differently on purpose:
//   429 (queue full)  — transient back-pressure that clears within about
//       one batch deadline: ceil(deadline), floored at 1 s.
//   503 (draining)    — the process is going away and a replica has to
//       take over: max(5 s, 2× the 429 hint), always distinct from (and
//       larger than) the 429 hint so clients back off harder.
http::HttpResponse RejectionResponse(const Status& status,
                                     const BatcherConfig& config) {
  const bool queue_full = status.code() == StatusCode::kResourceExhausted;
  http::HttpResponse resp =
      JsonError(queue_full ? 429 : 503, status.message());
  const int64_t deadline_us = std::max<int64_t>(0, config.batch_deadline_us);
  const int64_t hint_429 =
      std::max<int64_t>(1, (deadline_us + 999999) / 1000000);
  const int64_t hint_seconds =
      queue_full ? hint_429 : std::max<int64_t>(5, 2 * hint_429);
  resp.extra_headers.emplace_back("Retry-After",
                                  std::to_string(hint_seconds));
  return resp;
}

data::Record RecordFromText(const std::string& text) {
  data::Record record;
  record.attributes.emplace_back("text", text);
  return record;
}

/// Required string member of a parsed body; InvalidArgument otherwise.
Result<std::string> RequiredString(const json::Value& body,
                                   const std::string& key) {
  const json::Value* v = body.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::Invalid("body must be a JSON object with a string \"" +
                           key + "\" member");
  }
  return v->AsString();
}

}  // namespace

// What the dispatcher and quantizer actually resolved to at runtime, not
// what the build could have enabled.
void RegisterBuildzProviders() {
  static std::once_flag once;
  std::call_once(once, [] {
    AddBuildzSection("simd_backend", [] {
      return std::string(kernels::BackendName(kernels::ActiveBackend()));
    });
    AddBuildzSection("cpu_avx2", [] {
      return std::string(kernels::CpuSupportsAvx2() ? "true" : "false");
    });
    AddBuildzSection("int8_mode", [] {
      return std::string(int8::ActiveMode() == int8::Mode::kOn ? "on" : "off");
    });
    AddBuildzSection("arena", [] {
      return "capacity_bytes=" +
             std::to_string(ActivationArena::GlobalStats().capacity_bytes);
    });
  });
}

MatchService::MatchService(core::EmModel* model,
                           const core::EncodedDataset* encoding,
                           std::vector<data::Record> catalog,
                           ServeConfig config)
    : model_(model),
      encoding_(encoding),
      catalog_(std::move(catalog)),
      config_(config),
      blocker_(config.blocker) {
  EMBA_CHECK_MSG(model_ != nullptr && encoding_ != nullptr,
                 "MatchService requires a model and its encoding");
  RegisterBuildzProviders();
  model_->SetTraining(false);
  batcher_ = std::make_unique<DynamicBatcher>(
      [this](const std::vector<core::PairSample>& samples) {
        return core::BatchMatchProbabilities(*model_, samples);
      },
      config_.batcher);
}

MatchService::~MatchService() { Shutdown(); }

Status MatchService::Start(int port) {
  if (Running()) {
    return Status::FailedPrecondition("match service already running");
  }
  if (draining_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "match service has been shut down; create a new instance");
  }
  if (config_.http_workers < 1) {
    return Status::Invalid("http_workers must be >= 1");
  }
  http::HttpServerOptions options;
  options.num_workers = config_.http_workers;
  options.max_pending = config_.max_pending;
  options.max_body_bytes = config_.max_body_bytes;
  server_ = std::make_unique<http::HttpServer>(
      [this](const http::HttpRequest& request) { return Handle(request); },
      options);
  EMBA_RETURN_NOT_OK(server_->Start(port));
  SetHealthState(HealthState::kScoring);
  HealthHeartbeat();
  EMBA_LOG(INFO) << "emba_serve listening on port " << server_->port()
                 << " (/match /dedupe and the observability endpoints; batch="
                 << config_.batcher.max_batch << " deadline_us="
                 << config_.batcher.batch_deadline_us << " queue="
                 << config_.batcher.max_queue << " workers="
                 << config_.http_workers << " catalog=" << catalog_.size()
                 << ")";
  return Status::OK();
}

void MatchService::Shutdown() {
  const bool was_draining = draining_.exchange(true);
  // Step 1: stop admission. New /match and /dedupe work answers 503 and
  // load balancers see /healthz go 503 at the same moment.
  SetHealthState(HealthState::kDraining);
  // Step 2: flush — every parked request is scored and its waiting HTTP
  // worker answers with a real result. Idempotent on repeat calls.
  if (batcher_ != nullptr) batcher_->Drain();
  // Step 3: stop the listener; workers drain already-accepted connections.
  if (server_ != nullptr) {
    server_->Stop();
    if (!was_draining) {
      EMBA_LOG(INFO) << "emba_serve drained and stopped";
    }
  }
}

bool MatchService::Running() const {
  return server_ != nullptr && server_->Running();
}

int MatchService::port() const {
  return server_ != nullptr ? server_->port() : 0;
}

http::HttpResponse MatchService::Handle(const http::HttpRequest& request) {
  static metrics::Counter& requests =
      metrics::GetCounter("serve.http_requests");
  requests.Increment();
  HealthHeartbeat();
  if (request.path == "/match" || request.path == "/dedupe") {
    if (request.method != "POST") {
      http::HttpResponse resp =
          JsonError(405, request.path + " requires POST with a JSON body");
      resp.extra_headers.emplace_back("Allow", "POST");
      return resp;
    }
    return request.path == "/match" ? HandleMatch(request)
                                    : HandleDedupe(request);
  }
  // Everything else is the observability endpoint table (or its 404).
  return HandleObservabilityRequest(request);
}

http::HttpResponse MatchService::HandleMatch(
    const http::HttpRequest& request) {
  static metrics::Counter& match_requests =
      metrics::GetCounter("serve.match.requests");
  static metrics::Counter& match_rejected =
      metrics::GetCounter("serve.match.rejected");
  static metrics::Counter& match_bad =
      metrics::GetCounter("serve.match.bad_requests");
  static metrics::Histogram& e2e =
      metrics::GetHistogram("serve.match.e2e_ms");
  match_requests.Increment();
  Stopwatch timer;
  rtrace::RequestContext* ctx = request.trace.get();

  Result<json::Value> body = [&] {
    rtrace::StageTimer parse_timer(ctx, rtrace::Stage::kParse);
    return json::Parse(request.body);
  }();
  if (!body.ok()) {
    match_bad.Increment();
    return JsonError(400, body.status().message());
  }
  auto left = RequiredString(*body, "left");
  auto right = RequiredString(*body, "right");
  if (!left.ok() || !right.ok()) {
    match_bad.Increment();
    return JsonError(400, (left.ok() ? right : left).status().message());
  }

  data::LabeledPair pair;
  pair.left = RecordFromText(*left);
  pair.right = RecordFromText(*right);
  core::PairSample sample =
      core::EncodePair(*encoding_, pair, model_->input_style());

  if (draining_.load(std::memory_order_acquire)) {
    match_rejected.Increment();
    return RejectionResponse(Status::Unavailable("matcher is draining"),
                             config_.batcher);
  }
  auto future = batcher_->Submit(std::move(sample), request.trace);
  if (!future.ok()) {
    match_rejected.Increment();
    return RejectionResponse(future.status(), config_.batcher);
  }
  double probability = 0.0;
  try {
    probability = future->get();
  } catch (const std::exception& e) {
    return JsonError(500, std::string("scoring failed: ") + e.what());
  }

  http::HttpResponse resp;
  resp.content_type = "application/json";
  {
    rtrace::StageTimer serialize_timer(ctx, rtrace::Stage::kSerialize);
    std::ostringstream out;
    out << "{\"match_probability\": " << json::NumberToString(probability)
        << ", \"match\": "
        << (probability >= config_.match_threshold ? "true" : "false")
        << ", \"threshold\": " << json::NumberToString(config_.match_threshold)
        << "}\n";
    resp.body = out.str();
  }
  if (ctx != nullptr) {
    e2e.ObserveWithExemplar(timer.ElapsedMillis(), ctx->trace_id());
  } else {
    e2e.Observe(timer.ElapsedMillis());
  }
  return resp;
}

http::HttpResponse MatchService::HandleDedupe(
    const http::HttpRequest& request) {
  static metrics::Counter& dedupe_requests =
      metrics::GetCounter("serve.dedupe.requests");
  static metrics::Counter& dedupe_rejected =
      metrics::GetCounter("serve.dedupe.rejected");
  static metrics::Counter& dedupe_bad =
      metrics::GetCounter("serve.dedupe.bad_requests");
  static metrics::Histogram& e2e =
      metrics::GetHistogram("serve.dedupe.e2e_ms");
  static metrics::Histogram& candidates_hist = metrics::GetHistogram(
      "serve.dedupe.candidates", metrics::ExponentialBuckets(1.0, 2.0, 12));
  dedupe_requests.Increment();
  Stopwatch timer;
  rtrace::RequestContext* ctx = request.trace.get();

  Result<json::Value> body = [&] {
    rtrace::StageTimer parse_timer(ctx, rtrace::Stage::kParse);
    return json::Parse(request.body);
  }();
  if (!body.ok()) {
    dedupe_bad.Increment();
    return JsonError(400, body.status().message());
  }
  auto record_text = RequiredString(*body, "record");
  if (!record_text.ok()) {
    dedupe_bad.Increment();
    return JsonError(400, record_text.status().message());
  }
  size_t top_k = static_cast<size_t>(config_.dedupe_top_k);
  if (const json::Value* v = body->Find("top_k")) {
    if (!v->is_number() || v->AsNumber() < 1.0 || v->AsNumber() > 1e6) {
      dedupe_bad.Increment();
      return JsonError(400, "top_k must be a number in [1, 1e6]");
    }
    top_k = static_cast<size_t>(v->AsNumber());
  }
  double threshold = config_.match_threshold;
  if (const json::Value* v = body->Find("threshold")) {
    if (!v->is_number() || v->AsNumber() < 0.0 || v->AsNumber() > 1.0) {
      dedupe_bad.Increment();
      return JsonError(400, "threshold must be a number in [0, 1]");
    }
    threshold = v->AsNumber();
  }

  const pipeline::CandidateSet candidates = pipeline::BuildCandidateSamples(
      *encoding_, blocker_, RecordFromText(*record_text), catalog_,
      model_->input_style());
  candidates_hist.Observe(static_cast<double>(candidates.samples.size()));

  std::vector<double> scores;
  if (!candidates.samples.empty()) {
    if (draining_.load(std::memory_order_acquire)) {
      dedupe_rejected.Increment();
      return RejectionResponse(Status::Unavailable("matcher is draining"),
                               config_.batcher);
    }
    auto futures = batcher_->SubmitGroup(candidates.samples, request.trace);
    if (!futures.ok()) {
      dedupe_rejected.Increment();
      return RejectionResponse(futures.status(), config_.batcher);
    }
    scores.reserve(futures->size());
    try {
      for (auto& future : *futures) scores.push_back(future.get());
    } catch (const std::exception& e) {
      return JsonError(500, std::string("scoring failed: ") + e.what());
    }
  }

  // Rank by P(match) descending; ties break on catalog order so responses
  // are deterministic.
  std::vector<size_t> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  if (order.size() > top_k) order.resize(top_k);

  http::HttpResponse resp;
  resp.content_type = "application/json";
  {
    rtrace::StageTimer serialize_timer(ctx, rtrace::Stage::kSerialize);
    std::ostringstream out;
    out << "{\"candidates_considered\": " << scores.size()
        << ", \"threshold\": " << json::NumberToString(threshold)
        << ", \"candidates\": [";
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const size_t c = order[rank];
      const size_t catalog_index = candidates.catalog_indices[c];
      out << (rank == 0 ? "\n" : ",\n") << "  {\"catalog_index\": "
          << catalog_index << ", \"description\": \""
          << json::Escape(catalog_[catalog_index].Description())
          << "\", \"match_probability\": " << json::NumberToString(scores[c])
          << ", \"match\": " << (scores[c] >= threshold ? "true" : "false")
          << "}";
    }
    out << (order.empty() ? "]" : "\n]") << "}\n";
    resp.body = out.str();
  }
  if (ctx != nullptr) {
    e2e.ObserveWithExemplar(timer.ElapsedMillis(), ctx->trace_id());
  } else {
    e2e.Observe(timer.ElapsedMillis());
  }
  return resp;
}

// ---------------------------------------------------------------------------
// SIGTERM/SIGINT drain wiring

namespace {

std::atomic<bool> g_drain_requested{false};

void HandleDrainSignal(int /*signum*/) {
  // Async-signal-safe: two atomic stores. The heavyweight shutdown runs on
  // the serve loop after it observes DrainRequested().
  g_drain_requested.store(true, std::memory_order_release);
  SetHealthState(HealthState::kDraining);
}

}  // namespace

void InstallDrainSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = &HandleDrainSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
}

bool DrainRequested() {
  return g_drain_requested.load(std::memory_order_acquire);
}

void ResetDrainRequestedForTest() {
  g_drain_requested.store(false, std::memory_order_release);
}

}  // namespace serve
}  // namespace emba
