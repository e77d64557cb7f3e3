// emba_serve — the online entity-matching service (DESIGN.md §12).
//
// Composes the pieces the offline pipeline already proved out into a
// long-lived server:
//
//   POST /match   {"left": "...", "right": "..."} → P(match) for one pair,
//                 scored through the cross-request DynamicBatcher so
//                 concurrent requests share one core::BatchForward call.
//   POST /dedupe  {"record": "...", "top_k": N} → blocking-index candidates
//                 from the service catalog, each candidate scored through
//                 the same batcher, ranked by P(match).
//   GET  everything else — the observability endpoint table
//                 (util/observability.h), served on this port.
//
// Admission control and the drain protocol: a full batch queue answers 429
// with a Retry-After hint; once draining begins, new work answers 503
// (/healthz flips to 503 at the same moment so load balancers stop routing
// here), every already-admitted request is scored by the drain flush, and
// only then does the listener stop. An accepted request is never dropped.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "block/blocker.h"
#include "core/model.h"
#include "core/sample.h"
#include "serve/batcher.h"
#include "util/http_server.h"
#include "util/metrics.h"
#include "util/status.h"

namespace emba {
namespace serve {

struct ServeConfig {
  BatcherConfig batcher;
  /// HTTP handler threads. Must be > 1 for cross-request batching to form
  /// batches (requests must be in flight simultaneously) and for /healthz
  /// to answer while /match requests are parked.
  int http_workers = 4;
  /// Accepted-connection queue bound (http::HttpServerOptions::max_pending).
  size_t max_pending = 64;
  /// Request bodies beyond this are answered 413.
  size_t max_body_bytes = 64 * 1024;
  /// P(match) at or above this is reported as a match.
  double match_threshold = 0.5;
  /// Default /dedupe result-list cap (overridable per request via top_k).
  int dedupe_top_k = 10;
  /// Blocking index configuration for the /dedupe catalog.
  block::TokenBlockerConfig blocker;
};

class MatchService {
 public:
  /// `model` must outlive the service and is put in eval mode; `encoding`
  /// supplies the tokenizer the model was trained with. `catalog` is the
  /// record set /dedupe matches against.
  MatchService(core::EmModel* model, const core::EncodedDataset* encoding,
               std::vector<data::Record> catalog, ServeConfig config = {});
  ~MatchService();  ///< Calls Shutdown().

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Binds `port` (0 = ephemeral) and starts serving. Publishes the
  /// kScoring health state.
  Status Start(int port);

  /// The drain protocol, in order: (1) stop admission — the batcher and
  /// /healthz answer 503 from now on; (2) flush: every parked request is
  /// scored and answered; (3) stop the HTTP server, answering connections
  /// it had already accepted. Idempotent.
  void Shutdown();

  bool Running() const;
  int port() const;
  const ServeConfig& config() const { return config_; }
  size_t catalog_size() const { return catalog_.size(); }

  /// Routes one request exactly as the HTTP server would — exposed so
  /// tests can exercise handler logic without sockets.
  http::HttpResponse Handle(const http::HttpRequest& request);

 private:
  http::HttpResponse HandleMatch(const http::HttpRequest& request);
  http::HttpResponse HandleDedupe(const http::HttpRequest& request);
  /// The scoring step /match (a one-sample group) and /dedupe share: the
  /// drain pre-check, group admission and awaiting every score. Fills
  /// `scores` and returns nullopt, or returns the error response: 429/503,
  /// counted in `rejected`, or 500 when scoring threw. An empty group
  /// scores nothing.
  std::optional<http::HttpResponse> ScoreGroup(
      std::vector<core::PairSample> samples,
      const std::shared_ptr<rtrace::RequestContext>& trace,
      metrics::Counter& rejected, std::vector<double>* scores);

  core::EmModel* model_;
  const core::EncodedDataset* encoding_;
  std::vector<data::Record> catalog_;
  ServeConfig config_;
  block::TokenBlocker blocker_;
  std::unique_ptr<DynamicBatcher> batcher_;
  std::unique_ptr<http::HttpServer> server_;
  std::atomic<bool> draining_{false};
};

/// Registers the tensor-layer /buildz sections (simd_backend, cpu_avx2,
/// int8_mode, arena) with util/observability. Called by the MatchService
/// constructor; non-serve binaries that expose /buildz (emba_cli with
/// EMBA_OBS_PORT) call it from main. Idempotent.
void RegisterBuildzProviders();

/// SIGTERM/SIGINT graceful-drain wiring for long-lived serve processes:
/// the handler only sets an atomic flag and flips /healthz to draining
/// (both async-signal-safe); the serve loop polls DrainRequested() and
/// runs MatchService::Shutdown from normal context.
void InstallDrainSignalHandlers();
bool DrainRequested();
void ResetDrainRequestedForTest();

}  // namespace serve
}  // namespace emba
