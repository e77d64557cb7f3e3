#include "util/request_trace.h"

#include <algorithm>
#include <charconv>
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

int64_t Ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
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
  log.out << RecordJson(rec) << '\n';
  log.out.flush();
  lines.Increment();
}

void SortSlowestFirst(std::vector<RequestRecord>* records) {
  std::sort(records->begin(), records->end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.e2e_ms > b.e2e_ms;
            });
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

namespace internal {

// Everything but compute_ns is written before the batch is linked into any
// context (publication via the context mutex), so readers never race those
// writes. compute_ns lands after scoring, while /rpcz may be reading.
struct SharedBatch {
  uint64_t batch_id = 0;  ///< monotonic, 1-based, process-global
  int size = 0;
  const char* fire_reason = "";  ///< "full" | "deadline" | "drain"
  bool int8_active = false;
  std::vector<uint64_t> member_trace_ids;  ///< distinct traced requests
  std::atomic<int64_t> compute_ns{0};
};

}  // namespace internal

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
// RequestRecord

std::string RecordJson(const RequestRecord& rec) {
  std::ostringstream out;
  out << "{\"trace_id\": \"" << rec.trace_id_hex << "\", \"endpoint\": \""
      << json::Escape(rec.endpoint) << "\", \"status\": " << rec.status
      << ", \"in_flight\": " << (rec.in_flight ? "true" : "false")
      << ", \"error\": " << (rec.error ? "true" : "false")
      << ", \"start_unix_seconds\": "
      << json::NumberToString(rec.start_unix_seconds)
      << ", \"e2e_ms\": " << json::NumberToString(rec.e2e_ms)
      << ", \"stages_ms\": {";
  for (int s = 0; s < kStageCount; ++s) {
    out << (s == 0 ? "\"" : ", \"") << StageName(static_cast<Stage>(s))
        << "\": " << json::NumberToString(rec.stage_ms[s]);
  }
  out << ", \"other\": " << json::NumberToString(rec.other_ms) << "}";
  if (rec.has_batch) {
    out << ", \"batch\": {\"id\": " << rec.batch_id
        << ", \"size\": " << rec.batch_size << ", \"fire_reason\": \""
        << json::Escape(rec.fire_reason)
        << "\", \"compute_ms\": " << json::NumberToString(rec.batch_compute_ms)
        << ", \"int8\": " << (rec.int8_active ? "true" : "false")
        << ", \"sibling_trace_ids\": [";
    for (size_t i = 0; i < rec.sibling_trace_ids.size(); ++i) {
      out << (i == 0 ? "\"" : ", \"") << rec.sibling_trace_ids[i] << "\"";
    }
    out << "]}";
  }
  out << "}";
  return out.str();
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

void RequestContext::AddStageNs(Stage stage, int64_t ns) {
  stage_ns_[static_cast<int>(stage)].fetch_add(ns,
                                               std::memory_order_relaxed);
}

int64_t RequestContext::StageNs(Stage stage) const {
  return stage_ns_[static_cast<int>(stage)].load(std::memory_order_relaxed);
}

RequestRecord RequestContext::Record(bool in_flight) const {
  RequestRecord rec;
  rec.trace_id = trace_id_;
  rec.trace_id_hex = trace_id_hex();
  rec.status = status();
  rec.in_flight = in_flight;
  rec.error = !in_flight && (rec.status == 0 || rec.status >= 500);
  // The wall clock at start, recovered from the steady-clock age so the
  // context itself stays wall-clock-free.
  const Clock::duration age = Clock::now() - start_;
  rec.start_unix_seconds =
      UnixNowSeconds() - std::chrono::duration<double>(age).count();
  rec.e2e_ms = std::chrono::duration<double, std::milli>(age).count();
  double stage_sum = 0.0;
  for (int s = 0; s < kStageCount; ++s) {
    rec.stage_ms[s] = NsToMs(StageNs(static_cast<Stage>(s)));
    stage_sum += rec.stage_ms[s];
  }
  rec.other_ms = in_flight ? 0.0 : std::max(0.0, rec.e2e_ms - stage_sum);
  std::shared_ptr<internal::SharedBatch> batch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.endpoint = endpoint_;
    batch = batch_;
  }
  if (batch != nullptr) {
    rec.has_batch = true;
    rec.batch_id = batch->batch_id;
    rec.batch_size = batch->size;
    rec.fire_reason = batch->fire_reason;
    rec.batch_compute_ms =
        NsToMs(batch->compute_ns.load(std::memory_order_relaxed));
    rec.int8_active = batch->int8_active;
    for (uint64_t member : batch->member_trace_ids) {
      if (member != trace_id_) {
        rec.sibling_trace_ids.push_back(TraceIdToHex(member));
      }
    }
  }
  return rec;
}

// ---------------------------------------------------------------------------
// Batch attribution

BatchAttribution BatchAttribution::Open(
    const std::vector<BatchMember>& members, Clock::time_point dequeue,
    const char* fire_reason, bool int8_active) {
  BatchAttribution out;
  for (const BatchMember& member : members) {
    if (member.ctx == nullptr) continue;
    // Max, not sum: a group's wait is its critical path.
    std::atomic<int64_t>& wait =
        member.ctx->stage_ns_[static_cast<int>(Stage::kQueueWait)];
    const int64_t ns = Ns(dequeue - member.enqueue);
    int64_t cur = wait.load(std::memory_order_relaxed);
    while (ns > cur &&
           !wait.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
    // A group's samples ride as one member, however many landed here.
    if (std::find(out.traced_.begin(), out.traced_.end(), member.ctx) ==
        out.traced_.end()) {
      out.traced_.push_back(member.ctx);
    }
  }
  if (out.traced_.empty()) return out;
  auto batch = std::make_shared<internal::SharedBatch>();
  batch->batch_id = g_next_batch_id.fetch_add(1, std::memory_order_relaxed);
  batch->size = static_cast<int>(members.size());
  batch->fire_reason = fire_reason;
  batch->int8_active = int8_active;
  for (const auto& ctx : out.traced_) {
    batch->member_trace_ids.push_back(ctx->trace_id());
  }
  for (const auto& ctx : out.traced_) {
    std::lock_guard<std::mutex> lock(ctx->mutex_);
    ctx->batch_ = batch;
  }
  out.batch_ = std::move(batch);
  out.dequeue_ = dequeue;
  return out;
}

void BatchAttribution::Close(Clock::time_point score_begin,
                             Clock::time_point score_end) {
  if (batch_ == nullptr) return;
  const int64_t form_ns = Ns(score_begin - dequeue_);
  const int64_t compute_ns = Ns(score_end - score_begin);
  batch_->compute_ns.store(compute_ns, std::memory_order_relaxed);
  for (const auto& ctx : traced_) {
    ctx->AddStageNs(Stage::kBatchForm, form_ns);
    ctx->AddStageNs(Stage::kCompute, compute_ns);
  }
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
  RequestRecord rec = ctx->Record(/*in_flight=*/false);

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
  for (const auto& ctx : live) out.push_back(ctx->Record(/*in_flight=*/true));
  SortSlowestFirst(&out);
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
    if (std::none_of(store.slowest.begin(), store.slowest.end(),
                     [&rec](const RequestRecord& kept) {
                       return kept.trace_id == rec.trace_id;
                     })) {
      out.push_back(rec);
    }
  }
  SortSlowestFirst(&out);
  return out;
}

bool FindRetained(uint64_t trace_id, RequestRecord* out) {
  const auto find = [&](std::vector<RequestRecord> records) {
    for (RequestRecord& rec : records) {
      if (rec.trace_id == trace_id) {
        *out = std::move(rec);
        return true;
      }
    }
    return false;
  };
  return find(SnapshotRetained()) || find(SnapshotInFlight());
}

uint64_t ParseTraceIdHex(const std::string& hex) {
  uint64_t id = 0;
  const char* end = hex.data() + hex.size();
  const auto [ptr, ec] = std::from_chars(hex.data(), end, id, 16);
  if (hex.size() > 16 || ec != std::errc() || ptr != end) return 0;
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
    SortSlowestFirst(&store.slowest);
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
