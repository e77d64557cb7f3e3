// Request-scoped tracing for the serving path (DESIGN.md §11).
//
// The process-global tracer (util/trace) answers "where does *aggregate*
// time go"; this layer answers "where did *this request's* time go". Every
// HTTP request handled while request tracing is enabled gets a
// RequestContext: a 64-bit trace id (returned to the client as the
// X-Emba-Trace-Id response header) plus per-stage monotonic time
// accumulators covering the request's whole life:
//
//   parse       socket read + HTTP parse + JSON body parse
//   queue_wait  parked in the DynamicBatcher queue (enqueue → dequeue)
//   batch_form  dequeue → scoring call assembled
//   compute     the shared BatchForward call the request rode in
//   serialize   response-body construction
//   (other)     e2e minus the sum above — future hand-off, socket write
//
// Batching attribution: requests scored together share one BatchSpan
// (batch id, size, fire reason, compute time, member trace ids), linked
// from every member's context — so a slow request's record answers both
// "which batch served me" and "who rode with me".
//
// Tail-based sampling keeps always-on tracing cheap: full breakdown records
// are retained only for requests that error (5xx / aborted) or land in a
// bounded slowest-K reservoir; everything else feeds the
// serve.stage.*_ms histograms (with OpenMetrics exemplars carrying the
// trace id) and the optional JSON access log, then vanishes.
//
// Cost contract, mirroring util/trace: disabled (the default) a request
// costs one relaxed atomic load and a branch — no allocation, no clock
// read, no header. Pinned by tests/serve_test.cc.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace emba {
namespace rtrace {

using Clock = std::chrono::steady_clock;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True while request tracing is on. One relaxed load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);


// ---------------------------------------------------------------------------
// Stages

enum class Stage : int {
  kParse = 0,
  kQueueWait,
  kBatchForm,
  kCompute,
  kSerialize,
};
constexpr int kStageCount = 5;
const char* StageName(Stage stage);  ///< "parse", "queue_wait", ...

// ---------------------------------------------------------------------------
// BatchSpan — one per formed batch, shared by every request it served

struct BatchSpan {
  uint64_t batch_id = 0;  ///< monotonic, 1-based, process-global
  int size = 0;
  const char* fire_reason = "";  ///< "full" | "deadline" | "drain" (literal)
  bool int8_active = false;
  /// Trace ids of every traced request in the batch. Filled before the span
  /// is linked into any context (publication via the context mutex), so
  /// readers never race the writes.
  std::vector<uint64_t> member_trace_ids;
  /// Written by the batcher thread after the span is already visible, so
  /// they are atomics; /rpcz may read an in-flight batch.
  std::atomic<int64_t> form_ns{0};     ///< dequeue → score call issued
  std::atomic<int64_t> compute_ns{0};  ///< whole score_fn call
};

/// Allocates a BatchSpan with the next batch id.
std::shared_ptr<BatchSpan> BeginBatch(const char* fire_reason, int size);

// ---------------------------------------------------------------------------
// RequestContext

class RequestContext {
 public:
  explicit RequestContext(uint64_t trace_id);

  uint64_t trace_id() const { return trace_id_; }
  std::string trace_id_hex() const;  ///< 16 lowercase hex digits
  Clock::time_point start() const { return start_; }

  /// Truncating copy (endpoints are short fixed paths like "/match").
  void SetEndpoint(const std::string& path);
  std::string endpoint() const;

  /// Accumulates into a stage (relaxed atomic add; stages may be fed from
  /// several code regions, e.g. socket parse + JSON parse both feed kParse).
  void AddStageNs(Stage stage, int64_t ns);
  /// Keeps the max instead (queue_wait for multi-sample groups: the group's
  /// wait is its critical path, not the sum over samples).
  void MergeStageMaxNs(Stage stage, int64_t ns);
  int64_t StageNs(Stage stage) const;

  void SetStatus(int status) {
    status_.store(status, std::memory_order_relaxed);
  }
  int status() const { return status_.load(std::memory_order_relaxed); }

  /// Links the shared batch span (called once by the batcher thread).
  void LinkBatch(std::shared_ptr<BatchSpan> span);
  std::shared_ptr<BatchSpan> batch() const;

 private:
  const uint64_t trace_id_;
  const Clock::time_point start_;
  std::atomic<int64_t> stage_ns_[kStageCount] = {};
  std::atomic<int> status_{0};
  char endpoint_[32] = {};
  mutable std::mutex mutex_;  // guards endpoint_ + batch_
  std::shared_ptr<BatchSpan> batch_;
};

std::shared_ptr<RequestContext> StartRequestSlow();

/// Creates + registers an in-flight context; nullptr when disabled (the
/// zero-overhead path: one relaxed load, one branch).
inline std::shared_ptr<RequestContext> StartRequest() {
  if (!Enabled()) return nullptr;
  return StartRequestSlow();
}

/// Finalizes a request: computes e2e, feeds the serve.stage.* histograms
/// (with exemplars), writes the access-log line (rate limited), applies the
/// tail-sampling retention policy, and deregisters the in-flight entry.
/// `status` 0 means the connection died before a response (treated as an
/// error for retention). No-op on nullptr.
void FinishRequest(const std::shared_ptr<RequestContext>& ctx, int status);

/// RAII stage clock; null ctx = no clock read (the untraced path).
class StageTimer {
 public:
  StageTimer(RequestContext* ctx, Stage stage) : ctx_(ctx), stage_(stage) {
    if (ctx_ != nullptr) begin_ = Clock::now();
  }
  ~StageTimer() {
    if (ctx_ != nullptr) {
      ctx_->AddStageNs(stage_,
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - begin_)
                           .count());
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  RequestContext* ctx_;
  Stage stage_;
  Clock::time_point begin_;
};

// ---------------------------------------------------------------------------
// Tail store — in-flight registry + slowest-K reservoir + error retention

/// Owned copy of one request's breakdown, for /rpcz and tests.
struct RequestRecord {
  uint64_t trace_id = 0;
  std::string trace_id_hex;
  std::string endpoint;
  int status = 0;
  bool in_flight = false;
  bool error = false;
  double start_unix_seconds = 0.0;
  double e2e_ms = 0.0;  ///< in-flight: age so far
  double stage_ms[kStageCount] = {};
  double other_ms = 0.0;  ///< e2e − Σ stages (finished records only)
  bool has_batch = false;
  uint64_t batch_id = 0;
  int batch_size = 0;
  std::string fire_reason;
  double batch_compute_ms = 0.0;
  bool int8_active = false;
  std::vector<std::string> sibling_trace_ids;  ///< hex, self excluded
};

std::vector<RequestRecord> SnapshotInFlight();
/// Retained records (slowest-K ∪ recent errors), slowest first.
std::vector<RequestRecord> SnapshotRetained();
/// Looks `trace_id` up among retained records (then in-flight). False when
/// the id was never retained — the tail-sampling policy is allowed to have
/// dropped it.
bool FindRetained(uint64_t trace_id, RequestRecord* out);
bool FindRetainedHex(const std::string& hex, RequestRecord* out);

/// Parses a 1–16 digit lowercase/uppercase hex trace id; 0 on failure
/// (0 is never a valid trace id).
uint64_t ParseTraceIdHex(const std::string& hex);
std::string TraceIdToHex(uint64_t trace_id);

/// Slowest-K reservoir bound (default 32). Applies to future retention.
void SetSlowestK(size_t k);
size_t SlowestK();

/// Clears retained records, the in-flight table and drop counters, and
/// restores the default reservoir size. Does not touch enablement or the
/// access-log path.
void ResetForTest();

// ---------------------------------------------------------------------------
// Access log — one JSON line per finished request

/// Enables the access log at `path` (append; "" disables + closes). Lines
/// are written by FinishRequest under a rate limit and flushed per line.
Status SetAccessLogPath(const std::string& path);

/// Token-bucket limit on access-log lines (default 500/s; burst = 1 s of
/// tokens). Over-limit requests count serve.access_log.dropped instead.
void SetAccessLogRateLimit(double lines_per_second);

/// Flushes buffered access-log bytes to disk. Registered with the atexit
/// observability flush. OK and a no-op when no log is configured.
Status FlushAccessLog();

}  // namespace rtrace
}  // namespace emba
