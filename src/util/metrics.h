// Process-global metrics registry: named counters, gauges and fixed-bucket
// histograms with lock-free atomic updates on the hot path.
//
// Usage pattern — resolve once, update forever:
//
//   static metrics::Counter& pairs = metrics::GetCounter("scoring.pairs");
//   pairs.Increment(batch.size());
//
// The registry lookup takes a mutex but happens once per call site (function-
// local static); every subsequent update is a single relaxed atomic RMW on a
// cache-line-aligned slot. Metric objects are never deallocated while the
// process lives, so cached references stay valid across ResetAllForTest().
//
// Naming scheme (see DESIGN.md §11): dot-separated `<subsystem>.<metric>`
// with a unit suffix on histograms (`_ms`, `_us`). Counters are monotonic
// event counts, gauges are last-written values (plus an Add() for float
// accumulators like loss sums), histograms are fixed-boundary latency/size
// distributions with percentile summaries derived by linear interpolation
// within the owning bucket.
//
// `Enabled()` gates only the *expensive* instrumentation (the thread pool's
// per-ParallelFor chunk counters and queue-wait clocks); coarse
// per-batch/per-epoch updates are always on — they cost nanoseconds at
// their call rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace emba {
namespace metrics {

/// Monotonic event counter. Relaxed atomic increments; exact totals (no
/// sampling, no loss under concurrency).
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<uint64_t> value_{0};
};

/// Last-written value, plus Add() for floating-point accumulation (loss
/// sums). Both are single atomic ops.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. `bounds` are inclusive upper bounds of the
/// finite buckets, sorted ascending; one implicit +inf bucket catches the
/// overflow. Observe() is two relaxed RMWs (bucket + count) plus one atomic
/// double add (sum) — no locks, exact counts under any concurrency.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// NaN values are rejected (counted in NanCount(), never bucketed): one
  /// NaN added to `sum_` would poison every later percentile/mean derived
  /// from it, and lower_bound against NaN picks an arbitrary bucket. ±inf
  /// is still a legal observation (it lands in the +inf bucket).
  void Observe(double value);

  /// Number of NaN samples rejected by Observe()/ObserveWithExemplar().
  uint64_t NanCount() const {
    return nan_count_.load(std::memory_order_relaxed);
  }

  /// Per-bucket exemplar: the last (value, trace id, wall timestamp) that
  /// landed in the bucket via ObserveWithExemplar. Rendered on /metrics in
  /// OpenMetrics exemplar syntax so a scraped percentile links back to a
  /// retained request trace (util/request_trace). `has == false` slots have
  /// never been fed.
  struct Exemplar {
    bool has = false;
    double value = 0.0;
    uint64_t trace_id = 0;
    double unix_seconds = 0.0;
  };

  /// Observe() plus an exemplar update for the owning bucket. Takes a small
  /// per-histogram mutex — call it from request-rate paths (serving), not
  /// from per-kernel hot loops; plain Observe() stays lock-free.
  void ObserveWithExemplar(double value, uint64_t trace_id);

  /// One entry per bucket (bounds + the +inf bucket); empty vector when no
  /// exemplar was ever recorded on this histogram.
  std::vector<Exemplar> SnapshotExemplars() const;

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::vector<double> bounds;           ///< finite upper bounds
    std::vector<uint64_t> bucket_counts;  ///< bounds.size() + 1 (last = +inf)
  };
  /// Point-in-time snapshot with a hard internal-consistency contract:
  /// `count` is *defined* as the sum of `bucket_counts`, and the percentile
  /// fields are computed from those same buckets — so a scrape concurrent
  /// with Observe() calls can never see a torn state where the buckets and
  /// the count disagree (the live observability server's contract). `sum`
  /// is read separately and may lag the buckets by in-flight observations.
  Snapshot GetSnapshot() const;

  /// Percentile estimate in [0, 1], linearly interpolated inside the owning
  /// bucket (the +inf bucket reports the last finite bound). 0 when empty.
  double Percentile(double q) const;

  /// Percentile over an already-captured snapshot (same interpolation as
  /// Percentile, but torn-read free because the snapshot is immutable).
  static double PercentileFromSnapshot(const Snapshot& snap, double q);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void ResetForTest();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  alignas(64) std::atomic<uint64_t> count_{0};
  alignas(64) std::atomic<double> sum_{0.0};
  std::atomic<uint64_t> nan_count_{0};  // NaN samples rejected by Observe
  // Exemplar slots, lazily allocated on first ObserveWithExemplar so the
  // many exemplar-free histograms pay nothing.
  mutable std::mutex exemplar_mutex_;
  std::unique_ptr<Exemplar[]> exemplars_;  // bounds_.size() + 1 when set
};

/// 1-2-5 series from 1 µs to 60 s, in milliseconds — the default bucket
/// layout for every `*_ms` latency histogram.
std::vector<double> DefaultLatencyBucketsMs();
/// `count` bounds: start, start·factor, start·factor², …
std::vector<double> ExponentialBuckets(double start, double factor, int count);
/// `count` bounds: start, start+width, start+2·width, … (e.g. batch sizes).
std::vector<double> LinearBuckets(double start, double width, int count);

/// Process-global registry. Get* registers on first use and returns a
/// reference with process lifetime; later calls with the same name return
/// the same object (a Histogram's bounds are fixed by the first caller).
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with names
  /// sorted, so exports are diffable.
  std::string ToJson() const;

  /// Prometheus text exposition format (version 0.0.4): every counter,
  /// gauge and histogram rendered with `# HELP` / `# TYPE` lines. Metric
  /// names are the dotted registry names sanitized through
  /// PrometheusMetricName (dots → underscores, `emba_` prefix); histogram
  /// buckets are cumulative with an `le="+Inf"` terminal bucket whose value
  /// equals `<name>_count` on every scrape (the snapshot consistency
  /// contract — see Histogram::GetSnapshot).
  std::string ToPrometheus() const;

  /// Zeroes every registered metric in place. References stay valid — this
  /// is for test isolation, not deregistration.
  void ResetAllForTest();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Shorthands for Registry::Global().Get*.
Counter& GetCounter(const std::string& name);
Gauge& GetGauge(const std::string& name);
Histogram& GetHistogram(const std::string& name,
                        std::vector<double> bounds = {});

/// Gate for instrumentation too hot to leave always-on (the thread pool's
/// chunk counters and queue-wait clocks). Off by default; flipped by
/// --metrics-out / EMBA_METRICS_OUT or explicitly by tests and benches.
bool Enabled();
void SetEnabled(bool enabled);

/// `emba_` + `name` with every character outside [a-zA-Z0-9_:] replaced by
/// '_' — the Prometheus metric-name mapping for the dotted registry names
/// ("trainer.step_ms" → "emba_trainer_step_ms").
std::string PrometheusMetricName(const std::string& name);

/// Escapes a Prometheus label value: backslash, double-quote and newline
/// get backslash-escaped per the exposition format spec.
std::string PrometheusEscapeLabelValue(const std::string& value);

/// Point-in-time process statistics, read from /proc (Linux).
struct ProcessStats {
  double uptime_seconds = 0.0;  ///< since process start (steady clock)
  int64_t rss_bytes = 0;        ///< resident set size; 0 if unreadable
  int64_t threads = 0;          ///< thread count; 0 if unreadable
};
ProcessStats GetProcessStats();

/// Samples GetProcessStats() into the `process.uptime_seconds`,
/// `process.rss_bytes` and `process.threads` gauges, then runs every
/// registered scrape sampler. Called on every scrape and flush (not on hot
/// paths — it reads /proc).
void SampleProcessGauges();

/// Registers a callback invoked by each SampleProcessGauges() — i.e. once
/// per scrape/flush. Lets lower layers (e.g. the activation arena) publish
/// gauges on demand without util depending on them. Callbacks are retained
/// for process lifetime and must be cheap and thread-safe.
void AddScrapeSampler(std::function<void()> sampler);

/// Atomically writes the registry JSON to `path` (util/atomic_file).
/// Samples the process gauges first, so headless dumps carry them too.
Status DumpMetricsJson(const std::string& path);

}  // namespace metrics
}  // namespace emba
