// Cross-request dynamic batching for online match scoring.
//
// The offline path amortizes per-forward overhead by scoring thousands of
// pairs in one core::BatchForward call; an online service gets requests one
// at a time. The DynamicBatcher recovers the batch shape across requests:
// arrivals park in a bounded queue until either the batch fills
// (`max_batch`) or a deadline measured from the oldest parked request
// fires (`batch_deadline_us`), then the whole group is scored as one
// BatchForward call on the global thread pool. Because BatchForward
// computes every sample independently (index-addressed writes, PR-1
// determinism contract), a score obtained through any dynamically formed
// batch is bit-identical to a standalone batch of size 1 — the serving
// layer's equivalence contract, enforced by tests/serve_test.cc.
//
// Admission control is explicit and bounded: a full queue rejects with
// ResourceExhausted (HTTP 429) rather than queueing unboundedly, and a
// draining batcher rejects with Unavailable (HTTP 503). Drain() flushes
// every already-admitted request through real scoring before the thread
// exits — an accepted request is never dropped (DESIGN.md §12).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sample.h"
#include "util/request_trace.h"
#include "util/status.h"

namespace emba {
namespace serve {

struct BatcherConfig {
  /// Batch-full fire threshold (and the cap on one BatchForward call).
  size_t max_batch = 16;
  /// Deadline fire: microseconds the oldest parked request may wait for
  /// the batch to fill before being scored anyway.
  int64_t batch_deadline_us = 2000;
  /// Admission bound: parked requests beyond this are rejected (429).
  size_t max_queue = 256;
};

class DynamicBatcher {
 public:
  /// Scores a formed batch; element i of the result is sample i's
  /// P(match). Runs on the batcher thread (production wiring:
  /// core::BatchMatchProbabilities, which fans out over the thread pool).
  using ScoreFn =
      std::function<std::vector<double>(const std::vector<core::PairSample>&)>;

  /// Starts the batcher thread immediately.
  DynamicBatcher(ScoreFn score_fn, BatcherConfig config);
  ~DynamicBatcher();  ///< Calls Drain().

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// All-or-nothing admission of one request's samples (one for /match, a
  /// /dedupe request's candidates): either every sample is parked — possibly
  /// spread across several formed batches — or none is and the group is
  /// rejected as a unit. Future i yields sample i's score (or rethrows the
  /// ScoreFn's exception). ResourceExhausted when the queue is full,
  /// Unavailable when draining. `ctx` (optional) is the submitting request's
  /// trace context, handed to rtrace's batch attribution when its samples
  /// are scored.
  Result<std::vector<std::future<double>>> SubmitGroup(
      std::vector<core::PairSample> samples,
      std::shared_ptr<rtrace::RequestContext> ctx = nullptr);

  /// Stops admission (Unavailable from now on), scores every parked
  /// request, and joins the batcher thread. Idempotent; safe to call
  /// concurrently with SubmitGroup.
  void Drain();

  /// Parked (admitted, not yet scored) requests right now.
  size_t QueueDepth() const;

  const BatcherConfig& config() const { return config_; }

 private:
  struct Pending {
    core::PairSample sample;
    std::promise<double> promise;
    /// Enqueue time and the submitting request's trace context (nullptr
    /// when untraced).
    rtrace::BatchMember member;
  };

  void Loop();

  ScoreFn score_fn_;
  BatcherConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool draining_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace emba
