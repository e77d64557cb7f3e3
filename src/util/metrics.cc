#include "util/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "util/atomic_file.h"
#include "util/json.h"

namespace emba {
namespace metrics {

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBucketsMs();
  EMBA_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be sorted ascending");
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // NaN never enters the buckets or the sum: lower_bound's comparisons are
  // all false for NaN (it would land in bucket 0, silently skewing p50
  // downward) and one NaN fetch_add turns `sum_` into NaN forever.
  if (std::isnan(value)) {
    nan_count_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // First bucket whose upper bound admits the value; everything above the
  // last finite bound lands in the +inf bucket.
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::ObserveWithExemplar(double value, uint64_t trace_id) {
  Observe(value);
  if (std::isnan(value)) return;  // rejected above; no exemplar either
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  const double now = std::chrono::duration<double>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_ == nullptr) {
    exemplars_ = std::make_unique<Exemplar[]>(bounds_.size() + 1);
  }
  exemplars_[b] = Exemplar{true, value, trace_id, now};
}

std::vector<Histogram::Exemplar> Histogram::SnapshotExemplars() const {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_ == nullptr) return {};
  return std::vector<Exemplar>(exemplars_.get(),
                               exemplars_.get() + bounds_.size() + 1);
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.bucket_counts.resize(bounds_.size() + 1);
  // Consistency by construction: read the buckets, then *define* the count
  // as their sum. A concurrent Observe between two bucket reads changes
  // which observations the snapshot includes, but can never make the count
  // and the buckets disagree — the invariant the live scrape endpoint (and
  // obs_server_test) pin on every scrape. The atomic count_ is not read
  // here at all; it exists for the cheap Count() accessor.
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.bucket_counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += snap.bucket_counts[i];
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.p50 = PercentileFromSnapshot(snap, 0.50);
  snap.p95 = PercentileFromSnapshot(snap, 0.95);
  snap.p99 = PercentileFromSnapshot(snap, 0.99);
  return snap;
}

double Histogram::PercentileFromSnapshot(const Snapshot& snap, double q) {
  q = std::clamp(q, 0.0, 1.0);
  if (snap.count == 0) return 0.0;
  const double rank = q * static_cast<double>(snap.count);
  uint64_t cumulative = 0;
  const size_t finite = snap.bounds.size();
  for (size_t b = 0; b < snap.bucket_counts.size(); ++b) {
    const uint64_t in_bucket = snap.bucket_counts[b];
    if (in_bucket == 0) continue;
    const uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= rank) {
      if (b == finite) return snap.bounds.empty() ? 0.0 : snap.bounds.back();
      const double lo = b == 0 ? 0.0 : snap.bounds[b - 1];
      const double hi = snap.bounds[b];
      const double frac =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    cumulative = next;
  }
  return snap.bounds.empty() ? 0.0 : snap.bounds.back();
}

double Histogram::Percentile(double q) const {
  return PercentileFromSnapshot(GetSnapshot(), q);
}

void Histogram::ResetForTest() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  nan_count_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  exemplars_.reset();
}

std::vector<double> DefaultLatencyBucketsMs() {
  // 1-2-5 series, 1 µs .. 60 s.
  std::vector<double> bounds;
  for (double decade = 1e-3; decade <= 1e4; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(6e4);
  return bounds;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       int count) {
  EMBA_CHECK_MSG(start > 0.0 && factor > 1.0 && count >= 1,
                 "ExponentialBuckets requires start > 0, factor > 1, "
                 "count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  double v = start;
  for (int i = 0; i < count; ++i, v *= factor) bounds.push_back(v);
  return bounds;
}

std::vector<double> LinearBuckets(double start, double width, int count) {
  EMBA_CHECK_MSG(width > 0.0 && count >= 1,
                 "LinearBuckets requires width > 0, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  // std::map keeps exports sorted; unique_ptr keeps addresses stable across
  // rehash-free inserts so cached references never dangle.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  // Leaked on purpose: metric references handed out to call-site statics
  // must stay valid through static destruction order.
  static Impl* impl = new Impl();
  return *impl;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::GetCounter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::GetHistogram(const std::string& name,
                                  std::vector<double> bounds) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string Registry::ToJson() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : i.counters) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << '"' << json::Escape(name) << "\": " << counter->Value();
  }
  out << (i.counters.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : i.gauges) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << '"' << json::Escape(name)
        << "\": " << json::NumberToString(gauge->Value());
  }
  out << (i.gauges.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : i.histograms) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    const Histogram::Snapshot snap = histogram->GetSnapshot();
    const double mean =
        snap.count > 0 ? snap.sum / static_cast<double>(snap.count) : 0.0;
    out << '"' << json::Escape(name) << "\": {\"count\": " << snap.count
        << ", \"sum\": " << json::NumberToString(snap.sum)
        << ", \"mean\": " << json::NumberToString(mean)
        << ", \"p50\": " << json::NumberToString(snap.p50)
        << ", \"p95\": " << json::NumberToString(snap.p95)
        << ", \"p99\": " << json::NumberToString(snap.p99)
        << ", \"buckets\": [";
    bool first_bucket = true;
    for (size_t b = 0; b < snap.bucket_counts.size(); ++b) {
      if (snap.bucket_counts[b] == 0) continue;  // sparse export
      if (!first_bucket) out << ", ";
      first_bucket = false;
      // The overflow bucket's bound is the string "inf".
      out << "{\"le\": "
          << (b < snap.bounds.size() ? json::NumberToString(snap.bounds[b])
                                     : "\"inf\"")
          << ", \"count\": " << snap.bucket_counts[b] << "}";
    }
    out << "]}";
  }
  out << (i.histograms.empty() ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

namespace {

// Shared numeric formatting for exposition values and `le` labels, so the
// same bound renders identically on every scrape.
std::string FormatPromDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

// 16 lowercase hex digits — the exemplar label rendering of a trace id
// (matches rtrace::TraceIdToHex without a util-internal dependency).
std::string TraceIdLabelHex(uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[id & 0xF];
    id >>= 4;
  }
  return out;
}

void AppendPromEscapedHelp(std::ostringstream* out, const std::string& s) {
  for (char c : s) {
    if (c == '\\') {
      *out << "\\\\";
    } else if (c == '\n') {
      *out << "\\n";
    } else {
      *out << c;
    }
  }
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "emba_";
  out.reserve(name.size() + out.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusEscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string Registry::ToPrometheus() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  std::ostringstream out;
  auto header = [&](const std::string& dotted, const char* type) {
    const std::string name = PrometheusMetricName(dotted);
    out << "# HELP " << name << " EMBA metric '";
    AppendPromEscapedHelp(&out, dotted);
    out << "'\n# TYPE " << name << " " << type << "\n";
    return name;
  };
  for (const auto& [dotted, counter] : i.counters) {
    out << header(dotted, "counter") << " " << counter->Value() << "\n";
  }
  for (const auto& [dotted, gauge] : i.gauges) {
    out << header(dotted, "gauge") << " " << FormatPromDouble(gauge->Value())
        << "\n";
  }
  for (const auto& [dotted, histogram] : i.histograms) {
    const std::string name = header(dotted, "histogram");
    const Histogram::Snapshot snap = histogram->GetSnapshot();
    const std::vector<Histogram::Exemplar> exemplars =
        histogram->SnapshotExemplars();
    // Prometheus buckets are cumulative; the snapshot's count equals the
    // bucket sum by construction, so the +Inf bucket always equals _count.
    uint64_t cumulative = 0;
    for (size_t b = 0; b < snap.bucket_counts.size(); ++b) {
      cumulative += snap.bucket_counts[b];
      const std::string le =
          b < snap.bounds.size() ? FormatPromDouble(snap.bounds[b]) : "+Inf";
      out << name << "_bucket{le=\"" << PrometheusEscapeLabelValue(le)
          << "\"} " << cumulative;
      // OpenMetrics exemplar suffix — emitted only on buckets that have one,
      // so histograms never fed through ObserveWithExemplar (everything
      // outside the serving path) expose byte-identical lines to before.
      if (b < exemplars.size() && exemplars[b].has) {
        out << " # {trace_id=\"" << TraceIdLabelHex(exemplars[b].trace_id)
            << "\"} " << FormatPromDouble(exemplars[b].value) << " "
            << FormatPromDouble(exemplars[b].unix_seconds);
      }
      out << "\n";
    }
    out << name << "_sum " << FormatPromDouble(snap.sum) << "\n";
    out << name << "_count " << snap.count << "\n";
  }
  return out.str();
}

void Registry::ResetAllForTest() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, counter] : i.counters) counter->ResetForTest();
  for (auto& [name, gauge] : i.gauges) gauge->ResetForTest();
  for (auto& [name, histogram] : i.histograms) histogram->ResetForTest();
}

Counter& GetCounter(const std::string& name) {
  return Registry::Global().GetCounter(name);
}
Gauge& GetGauge(const std::string& name) {
  return Registry::Global().GetGauge(name);
}
Histogram& GetHistogram(const std::string& name, std::vector<double> bounds) {
  return Registry::Global().GetHistogram(name, std::move(bounds));
}

// ---------------------------------------------------------------------------
// Enable gate + output plumbing

namespace {
std::atomic<bool> g_enabled{false};
std::mutex g_path_mutex;
std::string& OutputPath() {
  static std::string* path = new std::string();
  return *path;
}
}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Process-level gauges

namespace {

// Anchored during static initialization (before main), so the first scrape
// already reports real uptime rather than time-since-first-scrape.
const std::chrono::steady_clock::time_point g_process_start_anchor =
    std::chrono::steady_clock::now();

std::chrono::steady_clock::time_point ProcessStartAnchor() {
  return g_process_start_anchor;
}

// Wall-clock twin of the anchor above, for the standard Prometheus
// process_start_time_seconds semantics (unix seconds at process start).
const double g_process_start_unix_seconds =
    std::chrono::duration<double>(
        std::chrono::system_clock::now().time_since_epoch())
        .count();

}  // namespace

ProcessStats GetProcessStats() {
  ProcessStats stats;
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ProcessStartAnchor())
          .count();
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    // Lines look like "VmRSS:   123456 kB" / "Threads:  12".
    if (line.rfind("VmRSS:", 0) == 0) {
      stats.rss_bytes =
          std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    } else if (line.rfind("Threads:", 0) == 0) {
      stats.threads = std::strtoll(line.c_str() + 8, nullptr, 10);
    }
  }
  return stats;
}

namespace {

std::mutex g_sampler_mutex;
std::vector<std::function<void()>>& ScrapeSamplers() {
  static auto* samplers = new std::vector<std::function<void()>>();
  return *samplers;
}

}  // namespace

void AddScrapeSampler(std::function<void()> sampler) {
  std::lock_guard<std::mutex> lock(g_sampler_mutex);
  ScrapeSamplers().push_back(std::move(sampler));
}

void SampleProcessGauges() {
  const ProcessStats stats = GetProcessStats();
  static Gauge& uptime = GetGauge("process.uptime_seconds");
  static Gauge& rss = GetGauge("process.rss_bytes");
  static Gauge& threads = GetGauge("process.threads");
  static Gauge& start_time = GetGauge("process.start_time_seconds");
  uptime.Set(stats.uptime_seconds);
  rss.Set(static_cast<double>(stats.rss_bytes));
  threads.Set(static_cast<double>(stats.threads));
  start_time.Set(g_process_start_unix_seconds);
  std::lock_guard<std::mutex> lock(g_sampler_mutex);
  for (const auto& sampler : ScrapeSamplers()) sampler();
}

Status DumpMetricsJson(const std::string& path) {
  SampleProcessGauges();
  return WriteFileAtomic(path, Registry::Global().ToJson());
}

void SetMetricsOutputPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_path_mutex);
  OutputPath() = path;
}

std::string MetricsOutputPath() {
  std::lock_guard<std::mutex> lock(g_path_mutex);
  return OutputPath();
}

void InitMetricsFromEnv() {
  if (const char* env = std::getenv("EMBA_METRICS_OUT")) {
    if (env[0] != '\0') {
      SetMetricsOutputPath(env);
      SetEnabled(true);
    }
  }
}

Status FlushMetricsIfConfigured() {
  std::string path = MetricsOutputPath();
  if (path.empty()) return Status::OK();
  return DumpMetricsJson(path);
}

}  // namespace metrics
}  // namespace emba
