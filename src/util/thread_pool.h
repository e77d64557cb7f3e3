// Fixed-size worker thread pool shared by the tensor kernels and the
// pipeline's batched pair scoring.
//
// Design goals, in order:
//   1. Determinism — ParallelFor partitions an index range into contiguous
//      chunks, so per-index work is identical to the serial loop and results
//      written by index are bit-identical at any thread count.
//   2. Safety under nesting — a ParallelFor issued from inside a pool worker
//      (e.g. a parallel MatMul inside a parallel pair-scoring task) runs
//      inline on that worker instead of re-entering the pool, which avoids
//      both deadlock and oversubscription.
//   3. Exception transparency — the first exception thrown by a task or a
//      ParallelFor body is captured and rethrown on the calling thread.
//
// The process-wide pool (GlobalThreadPool) is sized from EMBA_NUM_THREADS
// when set, else std::thread::hardware_concurrency(). A size of 1 short-
// circuits every ParallelFor to the plain serial loop — the legacy
// single-threaded behaviour, bit for bit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace emba {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers (the calling thread participates in
  /// every ParallelFor, so n threads of compute need n-1 workers).
  /// `num_threads <= 1` spawns no workers and makes all operations inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total compute width: workers + the calling thread.
  int num_threads() const { return num_threads_; }

  /// Enqueues an arbitrary task; the future rethrows its exception.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs body(i) for every i in [begin, end), partitioned into contiguous
  /// chunks of at least `grain` indices. Blocks until every index is done.
  /// The first exception thrown by `body` is rethrown here.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t)>& body);

  /// Chunked variant: body(chunk_begin, chunk_end) per contiguous chunk.
  /// Lets the body hoist per-chunk setup (e.g. a NoGradGuard) out of the
  /// per-index loop.
  void ParallelForChunks(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& body);

  /// True on a thread currently executing inside a ParallelFor of any pool
  /// (used to serialize nested parallelism).
  static bool InParallelRegion();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

/// Upper bound of EMBA_NUM_THREADS and of emba_cli's --threads.
inline constexpr int kMaxThreads = 1024;

/// EMBA_NUM_THREADS when set to an integer in [1, kMaxThreads], else
/// hardware_concurrency(), floored at 1.
int DefaultThreadCount();

/// Process-wide pool, created on first use with DefaultThreadCount().
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of `num_threads` (<= 0 resets to the
/// default). Not safe while tasks are in flight; call between workloads.
void SetGlobalThreads(int num_threads);

}  // namespace emba
