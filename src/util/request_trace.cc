#include "util/request_trace.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/json.h"
#include "util/metrics.h"

namespace emba {
namespace rtrace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

constexpr size_t kDefaultSlowestK = 32;
constexpr size_t kMaxErrorRecords = 64;
constexpr double kDefaultAccessLogRate = 500.0;

// splitmix64 — ids look random (no cross-request ordering leak in the
// header) while staying cheap and collision-free for any realistic uptime.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NextTraceId() {
  // Seeded from the clock once so ids differ across process restarts (a
  // retained trace file from a previous run can't alias a live id).
  static std::atomic<uint64_t> counter{static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count())};
  uint64_t id = Mix64(counter.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

double UnixNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

struct TailStore {
  std::mutex mutex;
  std::unordered_map<uint64_t, std::shared_ptr<RequestContext>> in_flight;
  std::vector<RequestRecord> slowest;  // unordered; linear min scan (K ≤ ~64)
  std::deque<RequestRecord> errors;    // newest at the back
  size_t slowest_k = kDefaultSlowestK;
};

TailStore& Store() {
  // Leaked: worker threads may finish requests during static destruction.
  static TailStore* store = new TailStore();
  return *store;
}

struct AccessLog {
  std::mutex mutex;
  std::string path;
  std::ofstream out;
  // Token bucket; capacity = one second of tokens (min 1).
  double rate = kDefaultAccessLogRate;
  double tokens = kDefaultAccessLogRate;
  Clock::time_point last_refill = Clock::now();
};

AccessLog& Log() {
  static AccessLog* log = new AccessLog();
  return *log;
}

std::atomic<uint64_t> g_next_batch_id{1};

// One access-log line (no trailing newline). Keys are stable — the log is
// a machine-read artifact (CI uploads it; jq-friendly).
std::string FormatAccessLogLine(const RequestRecord& rec) {
  std::ostringstream out;
  out << "{\"ts\": " << json::NumberToString(rec.start_unix_seconds)
      << ", \"trace_id\": \"" << rec.trace_id_hex << "\", \"endpoint\": \""
      << json::Escape(rec.endpoint) << "\", \"status\": " << rec.status
      << ", \"e2e_ms\": " << json::NumberToString(rec.e2e_ms)
      << ", \"stages_ms\": {";
  for (int s = 0; s < kStageCount; ++s) {
    out << (s == 0 ? "\"" : ", \"") << StageName(static_cast<Stage>(s))
        << "\": " << json::NumberToString(rec.stage_ms[s]);
  }
  out << ", \"other\": " << json::NumberToString(rec.other_ms) << "}";
  if (rec.has_batch) {
    out << ", \"batch_id\": " << rec.batch_id
        << ", \"batch_size\": " << rec.batch_size << ", \"fire_reason\": \""
        << json::Escape(rec.fire_reason) << "\"";
  }
  out << ", \"int8\": " << (rec.int8_active ? "true" : "false") << "}";
  return out.str();
}

void WriteAccessLogLine(const RequestRecord& rec) {
  static metrics::Counter& lines =
      metrics::GetCounter("serve.access_log.lines");
  static metrics::Counter& dropped =
      metrics::GetCounter("serve.access_log.dropped");
  AccessLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (!log.out.is_open()) return;
  // Token-bucket refill, then spend one token per line.
  const auto now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - log.last_refill).count();
  log.last_refill = now;
  const double capacity = std::max(1.0, log.rate);
  log.tokens = std::min(capacity, log.tokens + elapsed * log.rate);
  if (log.tokens < 1.0) {
    dropped.Increment();
    return;
  }
  log.tokens -= 1.0;
  log.out << FormatAccessLogLine(rec) << '\n';
  log.out.flush();
  lines.Increment();
}

RequestRecord BuildRecord(const RequestContext& ctx, bool in_flight,
                          double e2e_ms, int status) {
  RequestRecord rec;
  rec.trace_id = ctx.trace_id();
  rec.trace_id_hex = ctx.trace_id_hex();
  rec.endpoint = ctx.endpoint();
  rec.status = status;
  rec.in_flight = in_flight;
  rec.error = !in_flight && (status == 0 || status >= 500);
  rec.e2e_ms = e2e_ms;
  double stage_sum = 0.0;
  for (int s = 0; s < kStageCount; ++s) {
    rec.stage_ms[s] = NsToMs(ctx.StageNs(static_cast<Stage>(s)));
    stage_sum += rec.stage_ms[s];
  }
  rec.other_ms = in_flight ? 0.0 : std::max(0.0, e2e_ms - stage_sum);
  if (std::shared_ptr<BatchSpan> batch = ctx.batch()) {
    rec.has_batch = true;
    rec.batch_id = batch->batch_id;
    rec.batch_size = batch->size;
    rec.fire_reason = batch->fire_reason;
    rec.batch_compute_ms =
        NsToMs(batch->compute_ns.load(std::memory_order_relaxed));
    rec.int8_active = batch->int8_active;
    for (uint64_t member : batch->member_trace_ids) {
      if (member != ctx.trace_id()) {
        rec.sibling_trace_ids.push_back(TraceIdToHex(member));
      }
    }
  }
  return rec;
}

// Start-of-request wall clock, recovered from the steady-clock age so the
// context itself stays wall-clock-free.
double StartUnixSeconds(const RequestContext& ctx) {
  const double age =
      std::chrono::duration<double>(Clock::now() - ctx.start()).count();
  return UnixNowSeconds() - age;
}

metrics::Histogram& StageHistogram(Stage stage) {
  static metrics::Histogram* histograms[kStageCount] = {
      &metrics::GetHistogram("serve.stage.parse_ms"),
      &metrics::GetHistogram("serve.stage.queue_wait_ms"),
      &metrics::GetHistogram("serve.stage.batch_form_ms"),
      &metrics::GetHistogram("serve.stage.compute_ms"),
      &metrics::GetHistogram("serve.stage.serialize_ms"),
  };
  return *histograms[static_cast<int>(stage)];
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kBatchForm: return "batch_form";
    case Stage::kCompute: return "compute";
    case Stage::kSerialize: return "serialize";
  }
  return "unknown";
}

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// BatchSpan

std::shared_ptr<BatchSpan> BeginBatch(const char* fire_reason, int size) {
  auto span = std::make_shared<BatchSpan>();
  span->batch_id = g_next_batch_id.fetch_add(1, std::memory_order_relaxed);
  span->fire_reason = fire_reason;
  span->size = size;
  return span;
}

// ---------------------------------------------------------------------------
// RequestContext

RequestContext::RequestContext(uint64_t trace_id)
    : trace_id_(trace_id), start_(Clock::now()) {}

std::string RequestContext::trace_id_hex() const {
  return TraceIdToHex(trace_id_);
}

void RequestContext::SetEndpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::strncpy(endpoint_, path.c_str(), sizeof(endpoint_) - 1);
  endpoint_[sizeof(endpoint_) - 1] = '\0';
}

std::string RequestContext::endpoint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return endpoint_;
}

void RequestContext::AddStageNs(Stage stage, int64_t ns) {
  stage_ns_[static_cast<int>(stage)].fetch_add(ns,
                                               std::memory_order_relaxed);
}

void RequestContext::MergeStageMaxNs(Stage stage, int64_t ns) {
  std::atomic<int64_t>& slot = stage_ns_[static_cast<int>(stage)];
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (ns > cur &&
         !slot.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

int64_t RequestContext::StageNs(Stage stage) const {
  return stage_ns_[static_cast<int>(stage)].load(std::memory_order_relaxed);
}

void RequestContext::LinkBatch(std::shared_ptr<BatchSpan> span) {
  std::lock_guard<std::mutex> lock(mutex_);
  batch_ = std::move(span);
}

std::shared_ptr<BatchSpan> RequestContext::batch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return batch_;
}

// ---------------------------------------------------------------------------
// Lifecycle + tail sampling

std::shared_ptr<RequestContext> StartRequestSlow() {
  auto ctx = std::make_shared<RequestContext>(NextTraceId());
  TailStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.in_flight.emplace(ctx->trace_id(), ctx);
  return ctx;
}

void FinishRequest(const std::shared_ptr<RequestContext>& ctx, int status) {
  if (ctx == nullptr) return;
  static metrics::Counter& finished =
      metrics::GetCounter("rtrace.requests_finished");
  static metrics::Counter& retained_slow =
      metrics::GetCounter("rtrace.retained_slow");
  static metrics::Counter& retained_error =
      metrics::GetCounter("rtrace.retained_error");
  finished.Increment();

  ctx->SetStatus(status);
  const double e2e_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - ctx->start())
          .count();
  RequestRecord rec = BuildRecord(*ctx, /*in_flight=*/false, e2e_ms, status);
  rec.start_unix_seconds = StartUnixSeconds(*ctx);

  // Stage histograms + exemplars. Only stages the request actually passed
  // through are observed — a /metrics scrape has no queue_wait and must not
  // pull the serving percentiles toward zero.
  for (int s = 0; s < kStageCount; ++s) {
    if (rec.stage_ms[s] > 0.0) {
      StageHistogram(static_cast<Stage>(s))
          .ObserveWithExemplar(rec.stage_ms[s], rec.trace_id);
    }
  }

  WriteAccessLogLine(rec);

  // Tail retention: errors always (bounded FIFO), plus the slowest-K
  // reservoir — evict the current minimum only when the newcomer is slower.
  TailStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.in_flight.erase(rec.trace_id);
  if (rec.error) {
    retained_error.Increment();
    store.errors.push_back(rec);
    if (store.errors.size() > kMaxErrorRecords) store.errors.pop_front();
  }
  if (store.slowest.size() < store.slowest_k) {
    retained_slow.Increment();
    store.slowest.push_back(std::move(rec));
  } else if (!store.slowest.empty()) {
    size_t min_at = 0;
    for (size_t i = 1; i < store.slowest.size(); ++i) {
      if (store.slowest[i].e2e_ms < store.slowest[min_at].e2e_ms) min_at = i;
    }
    if (rec.e2e_ms > store.slowest[min_at].e2e_ms) {
      retained_slow.Increment();
      store.slowest[min_at] = std::move(rec);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshots

std::vector<RequestRecord> SnapshotInFlight() {
  TailStore& store = Store();
  std::vector<std::shared_ptr<RequestContext>> live;
  {
    std::lock_guard<std::mutex> lock(store.mutex);
    live.reserve(store.in_flight.size());
    for (const auto& [id, ctx] : store.in_flight) live.push_back(ctx);
  }
  std::vector<RequestRecord> out;
  out.reserve(live.size());
  for (const auto& ctx : live) {
    const double age_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  ctx->start())
            .count();
    RequestRecord rec =
        BuildRecord(*ctx, /*in_flight=*/true, age_ms, ctx->status());
    rec.start_unix_seconds = StartUnixSeconds(*ctx);
    out.push_back(std::move(rec));
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.e2e_ms > b.e2e_ms;
            });
  return out;
}

std::vector<RequestRecord> SnapshotRetained() {
  TailStore& store = Store();
  std::vector<RequestRecord> out;
  std::lock_guard<std::mutex> lock(store.mutex);
  out.reserve(store.slowest.size() + store.errors.size());
  out.insert(out.end(), store.slowest.begin(), store.slowest.end());
  for (const RequestRecord& rec : store.errors) {
    // A record can be in both pools; report it once.
    bool duplicate = false;
    for (const RequestRecord& kept : store.slowest) {
      if (kept.trace_id == rec.trace_id) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(rec);
  }
  std::sort(out.begin(), out.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.e2e_ms > b.e2e_ms;
            });
  return out;
}

bool FindRetained(uint64_t trace_id, RequestRecord* out) {
  {
    TailStore& store = Store();
    std::lock_guard<std::mutex> lock(store.mutex);
    for (const RequestRecord& rec : store.slowest) {
      if (rec.trace_id == trace_id) {
        *out = rec;
        return true;
      }
    }
    for (const RequestRecord& rec : store.errors) {
      if (rec.trace_id == trace_id) {
        *out = rec;
        return true;
      }
    }
  }
  for (RequestRecord& rec : SnapshotInFlight()) {
    if (rec.trace_id == trace_id) {
      *out = std::move(rec);
      return true;
    }
  }
  return false;
}

bool FindRetainedHex(const std::string& hex, RequestRecord* out) {
  const uint64_t id = ParseTraceIdHex(hex);
  return id != 0 && FindRetained(id, out);
}

uint64_t ParseTraceIdHex(const std::string& hex) {
  if (hex.empty() || hex.size() > 16) return 0;
  uint64_t id = 0;
  for (char c : hex) {
    id <<= 4;
    if (c >= '0' && c <= '9') {
      id |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      id |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      id |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return 0;
    }
  }
  return id;
}

std::string TraceIdToHex(uint64_t trace_id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[trace_id & 0xF];
    trace_id >>= 4;
  }
  return out;
}

void SetSlowestK(size_t k) {
  TailStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.slowest_k = std::max<size_t>(1, k);
  if (store.slowest.size() > store.slowest_k) {
    std::sort(store.slowest.begin(), store.slowest.end(),
              [](const RequestRecord& a, const RequestRecord& b) {
                return a.e2e_ms > b.e2e_ms;
              });
    store.slowest.resize(store.slowest_k);
  }
}

size_t SlowestK() {
  TailStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mutex);
  return store.slowest_k;
}

void ResetForTest() {
  TailStore& store = Store();
  std::lock_guard<std::mutex> lock(store.mutex);
  store.in_flight.clear();
  store.slowest.clear();
  store.errors.clear();
  store.slowest_k = kDefaultSlowestK;
}

// ---------------------------------------------------------------------------
// Access log

Status SetAccessLogPath(const std::string& path) {
  AccessLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (log.out.is_open()) log.out.close();
  log.path = path;
  if (path.empty()) return Status::OK();
  log.out.open(path, std::ios::app);
  if (!log.out.is_open()) {
    log.path.clear();
    return Status::IOError("cannot open access log: " + path);
  }
  log.tokens = std::max(1.0, log.rate);
  log.last_refill = Clock::now();
  return Status::OK();
}

void SetAccessLogRateLimit(double lines_per_second) {
  AccessLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mutex);
  log.rate = std::max(0.0, lines_per_second);
  log.tokens = std::min(log.tokens, std::max(1.0, log.rate));
}

Status FlushAccessLog() {
  AccessLog& log = Log();
  std::lock_guard<std::mutex> lock(log.mutex);
  if (!log.out.is_open()) return Status::OK();
  log.out.flush();
  if (!log.out.good()) {
    return Status::IOError("access log flush failed: " + log.path);
  }
  return Status::OK();
}

}  // namespace rtrace
}  // namespace emba
