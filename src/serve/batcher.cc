#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "tensor/int8.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/request_trace.h"
#include "util/trace.h"

namespace emba {
namespace serve {

namespace {

// Shared across endpoints: batches are formed from the mixed arrival
// stream, so their shape is a property of the batcher, not an endpoint.
metrics::Histogram& BatchSizeHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram(
      "serve.batch_size", metrics::LinearBuckets(1.0, 1.0, 64));
  return h;
}

metrics::Histogram& QueueWaitHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram("serve.queue_wait_ms");
  return h;
}

// Single registration point for the queue-depth gauge — SubmitGroup and Loop
// both publish it, and duplicated GetGauge call sites had already drifted
// into registering it twice.
metrics::Gauge& QueueDepthGauge() {
  static metrics::Gauge& g = metrics::GetGauge("serve.queue_depth");
  return g;
}

}  // namespace

DynamicBatcher::DynamicBatcher(ScoreFn score_fn, BatcherConfig config)
    : score_fn_(std::move(score_fn)), config_(config) {
  EMBA_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  EMBA_CHECK_MSG(config_.max_queue >= 1, "max_queue must be >= 1");
  EMBA_CHECK_MSG(config_.batch_deadline_us >= 0,
                 "batch_deadline_us must be >= 0");
  thread_ = std::thread([this] { Loop(); });
}

DynamicBatcher::~DynamicBatcher() { Drain(); }

Result<std::vector<std::future<double>>> DynamicBatcher::SubmitGroup(
    std::vector<core::PairSample> samples,
    std::shared_ptr<rtrace::RequestContext> ctx) {
  static metrics::Counter& admitted =
      metrics::GetCounter("serve.requests_admitted");
  static metrics::Counter& rejected_full =
      metrics::GetCounter("serve.rejected_queue_full");
  static metrics::Counter& rejected_draining =
      metrics::GetCounter("serve.rejected_draining");

  if (samples.empty()) return std::vector<std::future<double>>{};
  std::vector<std::future<double>> futures;
  futures.reserve(samples.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      rejected_draining.Increment(samples.size());
      return Status::Unavailable("matcher is draining");
    }
    if (queue_.size() + samples.size() > config_.max_queue) {
      rejected_full.Increment(samples.size());
      return Status::ResourceExhausted(
          "batch queue full (" + std::to_string(queue_.size()) + " parked, " +
          std::to_string(samples.size()) + " arriving, bound " +
          std::to_string(config_.max_queue) + ")");
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& sample : samples) {
      Pending pending;
      pending.sample = std::move(sample);
      pending.member = {ctx, now};
      futures.push_back(pending.promise.get_future());
      queue_.push_back(std::move(pending));
    }
    admitted.Increment(samples.size());
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return futures;
}

void DynamicBatcher::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

size_t DynamicBatcher::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void DynamicBatcher::Loop() {
  static metrics::Counter& batches =
      metrics::GetCounter("serve.batches_total");
  static metrics::Counter& full_fires =
      metrics::GetCounter("serve.batch_full_fires");
  static metrics::Counter& deadline_fires =
      metrics::GetCounter("serve.batch_deadline_fires");
  static metrics::Counter& drain_fires =
      metrics::GetCounter("serve.batch_drain_fires");

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
    if (queue_.empty()) {
      if (draining_) return;
      continue;
    }
    // Batch formation: the window opens when the oldest parked request
    // arrived and closes at batch-full, deadline, or drain — whichever
    // comes first.
    const auto deadline =
        queue_.front().member.enqueue +
        std::chrono::microseconds(config_.batch_deadline_us);
    cv_.wait_until(lock, deadline, [this] {
      return queue_.size() >= config_.max_batch || draining_;
    });

    const bool batch_full = queue_.size() >= config_.max_batch;
    const size_t n = std::min(queue_.size(), config_.max_batch);
    std::vector<core::PairSample> samples;
    std::vector<std::promise<double>> promises;
    std::vector<rtrace::BatchMember> members;
    samples.reserve(n);
    promises.reserve(n);
    members.reserve(n);
    const auto dequeue_time = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      Pending& pending = queue_.front();
      samples.push_back(std::move(pending.sample));
      promises.push_back(std::move(pending.promise));
      members.push_back(std::move(pending.member));
      queue_.pop_front();
    }
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    const bool draining_now = draining_;
    lock.unlock();

    batches.Increment();
    const char* fire_reason;
    if (batch_full) {
      full_fires.Increment();
      fire_reason = "full";
    } else if (draining_now) {
      drain_fires.Increment();
      fire_reason = "drain";
    } else {
      deadline_fires.Increment();
      fire_reason = "deadline";
    }
    BatchSizeHistogram().Observe(static_cast<double>(n));
    for (const rtrace::BatchMember& member : members) {
      QueueWaitHistogram().Observe(std::chrono::duration<double, std::milli>(
                                       dequeue_time - member.enqueue)
                                       .count());
    }

    rtrace::BatchAttribution attribution = rtrace::BatchAttribution::Open(
        members, dequeue_time, fire_reason,
        int8::ActiveMode() != int8::Mode::kOff);
    EMBA_TRACE_SPAN_ARGS("serve/batch", {"size", static_cast<int64_t>(n)});
    const auto score_begin = std::chrono::steady_clock::now();
    std::vector<double> scores;
    std::exception_ptr error;
    try {
      scores = score_fn_(samples);
    } catch (...) {
      error = std::current_exception();
    }
    attribution.Close(score_begin, std::chrono::steady_clock::now());
    if (error == nullptr) {
      EMBA_CHECK_MSG(scores.size() == n, "score fn returned wrong batch size");
    }
    for (size_t i = 0; i < n; ++i) {
      if (error != nullptr) promises[i].set_exception(error);
      else promises[i].set_value(scores[i]);
    }

    lock.lock();
  }
}

}  // namespace serve
}  // namespace emba
