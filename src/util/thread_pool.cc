#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace emba {
namespace {

// Set while a thread runs ParallelFor chunks; nested ParallelFor calls on
// such a thread degrade to the serial loop instead of re-entering the pool.
thread_local bool g_in_parallel_region = false;

struct ParallelRegionGuard {
  bool previous;
  ParallelRegionGuard() : previous(g_in_parallel_region) {
    g_in_parallel_region = true;
  }
  ~ParallelRegionGuard() { g_in_parallel_region = previous; }
};

// Queue-wait measurement costs two clock reads per task, so it only runs
// when somebody is looking (metrics or tracing on). This is the histogram
// that explains thread-scaling anomalies: on an oversubscribed or 1-core
// machine the wait rivals the task itself.
bool ObservabilityOn() { return metrics::Enabled() || trace::Enabled(); }

metrics::Histogram& QueueWaitHistogram() {
  static metrics::Histogram& h = metrics::GetHistogram(
      "threadpool.queue_wait_us",
      metrics::ExponentialBuckets(/*start=*/1.0, /*factor=*/2.0,
                                  /*count=*/24));
  return h;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  if (workers_.empty()) {
    // No workers: run inline so Submit still completes (and the future is
    // ready on return), preserving single-threaded semantics.
    task();
    return;
  }
  static metrics::Counter& submitted =
      metrics::GetCounter("threadpool.tasks_submitted");
  submitted.Increment();
  if (ObservabilityOn()) {
    // Stamp the enqueue instant; the wrapper observes the dequeue-to-run
    // wait on whichever worker picks the task up.
    const auto enqueued_at = trace::Clock::now();
    task = [enqueued_at, inner = std::move(task)] {
      const auto started_at = trace::Clock::now();
      QueueWaitHistogram().Observe(
          std::chrono::duration<double, std::micro>(started_at - enqueued_at)
              .count());
      if (trace::Enabled()) {
        trace::RecordSpan("threadpool/queue_wait", enqueued_at, started_at);
      }
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EMBA_CHECK_MSG(!shutdown_, "Submit on a shut-down ThreadPool");
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // packaged_task captures exceptions into the future
  }
}

bool ThreadPool::InParallelRegion() { return g_in_parallel_region; }

void ThreadPool::ParallelForChunks(
    int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t)>& body) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t count = end - begin;
  const int64_t num_chunks = (count + grain - 1) / grain;
  const int helpers =
      static_cast<int>(std::min<int64_t>(num_threads_, num_chunks));
  if (helpers <= 1 || g_in_parallel_region) {
    ParallelRegionGuard guard;
    body(begin, end);
    return;
  }
  EMBA_TRACE_SPAN_ARGS("threadpool/parallel_for", {"indices", count});
  const bool count_chunks = metrics::Enabled();
  if (count_chunks) {
    metrics::GetCounter("threadpool.parallel_for_calls").Increment();
    metrics::GetCounter("threadpool.chunks_total")
        .Increment(static_cast<uint64_t>(num_chunks));
  }

  // Work-stealing over chunk indices: the caller and helpers-1 workers pull
  // chunks from a shared counter until the range is exhausted. Chunk
  // boundaries depend only on (begin, end, grain), never on scheduling.
  auto next = std::make_shared<std::atomic<int64_t>>(0);
  auto first_error = std::make_shared<std::exception_ptr>();
  auto error_mutex = std::make_shared<std::mutex>();
  auto run_chunks = [=, &body](bool is_caller) {
    ParallelRegionGuard guard;
    for (;;) {
      const int64_t c = next->fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (count_chunks && !is_caller) {
        // A chunk executed by a pool worker was "stolen" from the caller;
        // the stolen share is the parallel fraction actually achieved.
        static metrics::Counter& stolen =
            metrics::GetCounter("threadpool.chunks_stolen");
        stolen.Increment();
      }
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        body(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(*error_mutex);
        if (!*first_error) *first_error = std::current_exception();
        // Keep draining chunks: every index must be visited exactly once so
        // callers can rely on outputs for indices untouched by the failure.
      }
    }
  };

  std::vector<std::future<void>> pending;
  pending.reserve(static_cast<size_t>(helpers - 1));
  for (int i = 0; i < helpers - 1; ++i) {
    pending.push_back(Submit([run_chunks] { run_chunks(false); }));
  }
  run_chunks(true);
  for (auto& f : pending) f.get();
  if (*first_error) std::rethrow_exception(*first_error);
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t)>& body) {
  ParallelForChunks(begin, end, grain, [&body](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) body(i);
  });
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("EMBA_NUM_THREADS")) {
    char* end = nullptr;
    const long n = std::strtol(env, &end, 10);
    if (end != env && n > 0) return static_cast<int>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {
std::unique_ptr<ThreadPool> g_pool;
std::mutex g_pool_mutex;
}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *g_pool;
}

void SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(
      num_threads > 0 ? num_threads : DefaultThreadCount());
}

}  // namespace emba
