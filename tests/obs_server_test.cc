// Tier-1 tests for the live observability server (util/http_server +
// util/observability), the Prometheus exposition (util/metrics), the
// sampling profiler (util/profiler) and rich span args: exposition syntax
// + label escaping, snapshot consistency under a real concurrent training
// run (histogram bucket sum == count on every scrape), /healthz state
// transitions, profiler smoke, clean port-in-use errors, and the
// no-server-no-thread contract.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "util/env.h"
#include "util/http_server.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/profiler.h"
#include "util/request_trace.h"
#include "util/trace.h"

namespace emba {

// Named spin target for the profiler smoke test. Out of the anonymous
// namespace and noinline on purpose: the symbol must reach the dynamic
// symbol table (-rdynamic) for backtrace_symbols to name it, and must not
// be folded into the std::thread trampoline.
__attribute__((noinline)) uint64_t ObsTestProfilerSpin(
    const std::atomic<bool>* stop) {
  uint64_t acc = 1;
  while (!stop->load(std::memory_order_relaxed)) {
    for (int i = 0; i < 4096; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    asm volatile("" : "+r"(acc));  // keep the loop un-optimizable
  }
  return acc;
}

namespace {

// ---------------------------------------------------------------------------
// Tiny blocking HTTP GET client (tests only).

struct HttpResult {
  int status = 0;
  std::string body;
};

Result<HttpResult> HttpGet(int port, const std::string& target) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return Status::IOError("connect(port " + std::to_string(port) + ")");
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return Status::IOError("send()");
    }
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    raw.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  const size_t header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || header_end == std::string::npos) {
    return Status::IOError("malformed response: " + raw.substr(0, 64));
  }
  HttpResult result;
  result.status = std::atoi(raw.c_str() + std::strlen("HTTP/1.1 "));
  result.body = raw.substr(header_end + 4);
  return result;
}

bool IsJson(const std::string& text) { return json::Parse(text).ok(); }

// A failed parse fails the test and yields null.
json::Value ParseJson(const std::string& text) {
  Result<json::Value> parsed = json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
  return parsed.ok() ? *parsed : json::Value();
}

// The string member `key` of `v`; "<missing>" when absent or not a string.
std::string StringAt(const json::Value& v, const std::string& key) {
  const json::Value* m = v.Find(key);
  return m != nullptr && m->is_string() ? m->AsString() : "<missing>";
}

// The first element of array member `key` whose "name" is `name`.
const json::Value* EventNamed(const json::Value& v, const std::string& key,
                              const std::string& name) {
  const json::Value* events = v.Find(key);
  if (events == nullptr || !events->is_array()) return nullptr;
  for (const json::Value& e : events->AsArray()) {
    if (StringAt(e, "name") == name) return &e;
  }
  return nullptr;
}

http::HttpResponse Get(const std::string& path, const std::string& query) {
  http::HttpRequest req;
  req.method = "GET";
  req.path = path;
  req.query = query;
  return HandleObservabilityRequest(req);
}

// `text` with every number outside a JSON string replaced by 0, so two
// scrapes of an endpoint whose values move between calls (uptime, RSS,
// request counters) compare equal in every key, string and separator.
std::string MaskNumbers(const std::string& text) {
  std::string out;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < text.size()) {
        out += text[++i];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      while (i + 1 < text.size() &&
             std::strchr("0123456789+-.eE", text[i + 1]) != nullptr) {
        ++i;
      }
      out += '0';
    } else {
      in_string = c == '"';
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Prometheus exposition checks shared by the syntax and concurrency tests.

// Asserts exposition-format shape line by line and the histogram invariant:
// for every <name>_count sample there is a <name>_bucket{le="+Inf"} sample
// with the identical value, and bucket values are nondecreasing (cumulative).
void CheckPrometheusExposition(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::map<std::string, uint64_t> inf_buckets;
  std::map<std::string, uint64_t> counts;
  std::string last_bucket_name;
  uint64_t last_bucket_value = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "sample without value: " << line;
    const std::string name_and_labels = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    // Every exported name carries the emba_ prefix and sanitized charset.
    ASSERT_EQ(name_and_labels.rfind("emba_", 0), 0u) << line;
    const size_t brace = name_and_labels.find('{');
    const std::string name = name_and_labels.substr(0, brace);
    for (char c : name) {
      ASSERT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char in: " << line;
    }
    if (name.size() > 7 && name.substr(name.size() - 7) == "_bucket") {
      const uint64_t v = std::stoull(value);
      if (name != last_bucket_name) {
        last_bucket_name = name;
        last_bucket_value = 0;
      }
      ASSERT_GE(v, last_bucket_value)
          << "buckets must be cumulative: " << line;
      last_bucket_value = v;
      if (name_and_labels.find("le=\"+Inf\"") != std::string::npos) {
        inf_buckets[name.substr(0, name.size() - 7)] = v;
      }
    } else if (name.size() > 6 && name.substr(name.size() - 6) == "_count") {
      counts[name.substr(0, name.size() - 6)] = std::stoull(value);
    }
  }
  for (const auto& [base, count] : counts) {
    auto it = inf_buckets.find(base);
    ASSERT_NE(it, inf_buckets.end()) << base << " has _count but no +Inf";
    // The snapshot-consistency contract: never torn, on any scrape.
    ASSERT_EQ(it->second, count) << base << " +Inf bucket != count";
  }
}

core::EncodedDataset TinyEncodedDataset() {
  data::GeneratorOptions options;
  options.seed = 33;
  options.size_factor = 0.3;
  auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
  core::EncodeOptions encode_options;
  encode_options.max_len = 24;
  encode_options.wordpiece_vocab = 400;
  return core::EncodeDataset(dataset, encode_options);
}

class ObsServerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    StopObservabilityServer();
    trace::Stop();
    rtrace::SetEnabled(false);
    ASSERT_TRUE(rtrace::SetAccessLogPath("").ok());
    rtrace::ResetForTest();
  }
};

// ---------------------------------------------------------------------------
// Exposition format units

TEST_F(ObsServerTest, PrometheusMetricNameSanitizes) {
  EXPECT_EQ(metrics::PrometheusMetricName("trainer.step_ms"),
            "emba_trainer_step_ms");
  EXPECT_EQ(metrics::PrometheusMetricName("a.b-c d/e"), "emba_a_b_c_d_e");
  EXPECT_EQ(metrics::PrometheusMetricName("ok_name:sub"), "emba_ok_name:sub");
}

TEST_F(ObsServerTest, PrometheusLabelValueEscaping) {
  EXPECT_EQ(metrics::PrometheusEscapeLabelValue("plain"), "plain");
  EXPECT_EQ(metrics::PrometheusEscapeLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(metrics::PrometheusEscapeLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(metrics::PrometheusEscapeLabelValue("a\nb"), "a\\nb");
}

TEST_F(ObsServerTest, QueryParamParsing) {
  EXPECT_EQ(http::QueryParam("seconds=2&clock=wall", "seconds", "9"), "2");
  EXPECT_EQ(http::QueryParam("seconds=2&clock=wall", "clock", "cpu"), "wall");
  EXPECT_EQ(http::QueryParam("seconds=2", "clock", "cpu"), "cpu");
  EXPECT_EQ(http::QueryParam("", "clock", "cpu"), "cpu");
  EXPECT_EQ(http::QueryParam("clock=", "clock", "cpu"), "cpu");
}

TEST_F(ObsServerTest, ExpositionContainsAllMetricKindsAndParses) {
  metrics::GetCounter("obs_test.requests").Increment(7);
  metrics::GetGauge("obs_test.temperature").Set(36.6);
  metrics::Histogram& hist =
      metrics::GetHistogram("obs_test.latency_ms", {1.0, 10.0, 100.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(5000.0);  // +inf bucket

  const std::string text = metrics::Registry::Global().ToPrometheus();
  CheckPrometheusExposition(text);
  EXPECT_NE(text.find("# TYPE emba_obs_test_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE emba_obs_test_temperature gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE emba_obs_test_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("emba_obs_test_latency_ms_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("emba_obs_test_latency_ms_count 3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot consistency

TEST_F(ObsServerTest, SnapshotNeverTornUnderConcurrentObserves) {
  metrics::Histogram& hist = metrics::GetHistogram(
      "obs_test.hammer_ms", metrics::ExponentialBuckets(0.001, 4.0, 12));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&hist, &stop, t] {
      double v = 0.0007 * (t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        hist.Observe(v);
        v = v * 1.37 + 0.0001;
        if (v > 1000.0) v = 0.0007;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    const metrics::Histogram::Snapshot snap = hist.GetSnapshot();
    uint64_t bucket_sum = 0;
    for (uint64_t c : snap.bucket_counts) bucket_sum += c;
    ASSERT_EQ(snap.count, bucket_sum) << "torn snapshot at iteration " << i;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_EQ(metrics::Histogram::PercentileFromSnapshot(hist.GetSnapshot(),
                                                       0.5),
            hist.Percentile(0.5));
}

// ---------------------------------------------------------------------------
// Live server end-to-end: scrape concurrently with a real training run.

TEST_F(ObsServerTest, ConcurrentScrapeDuringTrainingIsConsistent) {
  metrics::SetEnabled(true);
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();
  ASSERT_GT(port, 0);

  std::atomic<bool> training_done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!training_done.load(std::memory_order_acquire)) {
      auto result = HttpGet(port, "/metrics");
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->status, 200);
      CheckPrometheusExposition(result->body);
      scrapes.fetch_add(1);
    }
  });

  core::EncodedDataset dataset = TinyEncodedDataset();
  Rng rng(5);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 1;
  config.heartbeat_seconds = 0.0;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  training_done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0);
  // The trainer published its run-state and stamped the heartbeat (the
  // server was running, so the per-step gate was open).
  EXPECT_EQ(GetHealthState(), HealthState::kTraining);
  const double age = HealthHeartbeatAgeSeconds();
  EXPECT_GE(age, 0.0);
  EXPECT_LT(age, 60.0);

  // /metrics.json serves valid JSON including the process gauges.
  auto json = HttpGet(port, "/metrics.json");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->status, 200);
  EXPECT_TRUE(IsJson(json->body));
  EXPECT_NE(json->body.find("process.rss_bytes"), std::string::npos);
  EXPECT_NE(json->body.find("process.uptime_seconds"), std::string::npos);
  EXPECT_NE(json->body.find("process.threads"), std::string::npos);

  // The Prometheus view carries them too.
  auto prom = HttpGet(port, "/metrics");
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom->body.find("emba_process_rss_bytes"), std::string::npos);
}

TEST_F(ObsServerTest, HealthzReflectsStateTransitions) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();

  SetHealthState(HealthState::kStarting);
  auto starting = HttpGet(port, "/healthz");
  ASSERT_TRUE(starting.ok());
  EXPECT_EQ(starting->status, 200);
  EXPECT_NE(starting->body.find("\"state\": \"starting\""),
            std::string::npos);
  EXPECT_TRUE(IsJson(starting->body));

  SetHealthState(HealthState::kScoring);
  HealthHeartbeat();
  auto scoring = HttpGet(port, "/healthz");
  ASSERT_TRUE(scoring.ok());
  EXPECT_EQ(scoring->status, 200);
  EXPECT_NE(scoring->body.find("\"state\": \"scoring\""), std::string::npos);
  EXPECT_EQ(scoring->body.find("\"heartbeat_age_seconds\": null"),
            std::string::npos);

  SetHealthState(HealthState::kDraining);
  auto draining = HttpGet(port, "/healthz");
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(draining->status, 503);
  EXPECT_NE(draining->body.find("\"state\": \"draining\""),
            std::string::npos);

  SetHealthState(HealthState::kStarting);
}

TEST_F(ObsServerTest, TracezServesTypedArgsAsJson) {
  trace::Start();
  {
    EMBA_TRACE_SPAN_ARGS("obs_test/span", {"step", 41}, {"lr", 0.25},
                         {"mode", "unit-test"});
  }
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();

  auto json = HttpGet(port, "/tracez");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->status, 200);
  EXPECT_TRUE(IsJson(json->body)) << json->body;
  EXPECT_NE(json->body.find("obs_test/span"), std::string::npos);
  EXPECT_NE(json->body.find("\"step\": 41"), std::string::npos);
  EXPECT_NE(json->body.find("\"lr\": 0.25"), std::string::npos);
  EXPECT_NE(json->body.find("\"mode\": \"unit-test\""), std::string::npos);
}

TEST_F(ObsServerTest, UnknownPathIs404AndBadMethodRejected) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();
  auto missing = HttpGet(port, "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  http::HttpRequest post;
  post.method = "POST";
  post.path = "/metrics";
  EXPECT_EQ(HandleObservabilityRequest(post).status, 405);
}

// The endpoint table end to end: `/` lists every built-in path plus the
// registered /trainz, every listed path answers, and the JSON endpoints
// ignore the retired `format` parameter.
TEST_F(ObsServerTest, IndexListsEveryEndpointAndEachOneAnswers) {
  const http::HttpResponse index = Get("/", "");
  EXPECT_EQ(index.status, 200);
  const json::Value listing = ParseJson(index.body);
  const json::Value* endpoints = listing.Find("endpoints");
  ASSERT_TRUE(endpoints != nullptr && endpoints->is_array()) << index.body;
  std::vector<std::string> paths;
  for (const json::Value& path : endpoints->AsArray()) {
    ASSERT_TRUE(path.is_string());
    paths.push_back(path.AsString());
  }
  for (const char* want : {"/", "/metrics", "/metrics.json", "/healthz",
                           "/tracez", "/profilez", "/rpcz", "/buildz",
                           "/trainz"}) {
    EXPECT_NE(std::find(paths.begin(), paths.end(), want), paths.end())
        << want << " missing from " << index.body;
  }
  for (const std::string& path : paths) {
    const http::HttpResponse plain =
        Get(path, path == "/profilez" ? "seconds=0.05" : "");
    EXPECT_NE(plain.status, 404) << path;
    // /metrics (Prometheus text) and /profilez (collapsed stacks) are the
    // two non-JSON endpoints.
    if (path == "/metrics" || path == "/profilez") continue;
    EXPECT_EQ(plain.content_type, "application/json") << path;
    EXPECT_TRUE(IsJson(plain.body)) << path << "\n" << plain.body;
    EXPECT_EQ(MaskNumbers(Get(path, "format=json").body),
              MaskNumbers(plain.body))
        << path;
  }
}

TEST_F(ObsServerTest, BuildzReportsProvenanceAndEnvKnobs) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();

  auto buildz = HttpGet(port, "/buildz");
  ASSERT_TRUE(buildz.ok()) << buildz.status().ToString();
  ASSERT_EQ(buildz->status, 200);
  EXPECT_TRUE(IsJson(buildz->body)) << buildz->body;
  EXPECT_NE(buildz->body.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(buildz->body.find("\"compiler\": \""), std::string::npos);
  EXPECT_NE(buildz->body.find("\"start_time_unix_seconds\": "),
            std::string::npos);
  EXPECT_NE(buildz->body.find("\"uptime_seconds\": "), std::string::npos);
  // The env keys are exactly the reader's knob list (util/env.h), set or
  // not: a knob cannot be read without being reported.
  auto parsed = json::Parse(buildz->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* env_section = parsed->Find("env");
  ASSERT_NE(env_section, nullptr);
  ASSERT_TRUE(env_section->is_object());
  std::vector<std::string> reported;
  for (const auto& entry : env_section->AsObject()) {
    reported.push_back(entry.first);
  }
  std::vector<std::string> knobs;
  for (int i = 0; i < static_cast<int>(env::Knob::kCount); ++i) {
    knobs.push_back(env::Name(static_cast<env::Knob>(i)));
  }
  std::sort(knobs.begin(), knobs.end());  // json::Object is a sorted map
  EXPECT_EQ(reported, knobs);
}

TEST_F(ObsServerTest, RpczServesJsonWhenIdle) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();

  auto json = HttpGet(port, "/rpcz");
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json->status, 200);
  EXPECT_TRUE(IsJson(json->body)) << json->body;
  EXPECT_NE(json->body.find("\"slowest_k\": "), std::string::npos);
  EXPECT_NE(json->body.find("\"retained\": ["), std::string::npos);

  // An unretained id answers 404, not an empty 200.
  auto unknown = HttpGet(port, "/rpcz?trace_id=00000000deadbeef");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);
  EXPECT_NE(unknown->body.find("not retained"), std::string::npos);
}

TEST_F(ObsServerTest, ProcessStartTimeGaugeIsScrapable) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();
  auto prom = HttpGet(port, "/metrics");
  ASSERT_TRUE(prom.ok());
  ASSERT_EQ(prom->status, 200);
  EXPECT_NE(prom->body.find("emba_process_start_time_seconds"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Server lifecycle

TEST_F(ObsServerTest, PortInUseFailsCleanly) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();
  http::HttpServer second([](const http::HttpRequest&) {
    return http::HttpResponse{};
  });
  Status status = second.Start(port);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.ToString().find("bind"), std::string::npos);
  EXPECT_FALSE(second.Running());
}

TEST_F(ObsServerTest, ServerOffMeansNoListenerThread) {
  ASSERT_FALSE(ObservabilityServerRunning());
  EXPECT_EQ(ObservabilityServerPort(), 0);
  const int64_t threads_before = metrics::GetProcessStats().threads;
  ASSERT_GT(threads_before, 0);

  // The listener thread exists exactly while the server runs.
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  EXPECT_TRUE(ObservabilityServerRunning());
  EXPECT_EQ(metrics::GetProcessStats().threads, threads_before + 1);
  StopObservabilityServer();
  EXPECT_FALSE(ObservabilityServerRunning());
  EXPECT_EQ(metrics::GetProcessStats().threads, threads_before);
}

TEST_F(ObsServerTest, DoubleStartRejected) {
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  Status again = StartObservabilityServer(0);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Profiler

TEST_F(ObsServerTest, ProfilerAttributesSamplesToSpinFunction) {
  std::atomic<bool> stop{false};
  std::thread spinner([&stop] { ObsTestProfilerSpin(&stop); });
  auto profile = prof::CollectProfile(0.5, prof::ProfileClock::kCpu,
                                      /*hz=*/250);
  stop.store(true);
  spinner.join();
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_FALSE(profile->empty());
  // Collapsed-stack lines end in a count; the spinner must show up.
  EXPECT_NE(profile->find("ObsTestProfilerSpin"), std::string::npos)
      << "profile was:\n"
      << *profile;
}

TEST_F(ObsServerTest, ProfilerRejectsBadDurations) {
  EXPECT_FALSE(prof::CollectProfile(0.0).ok());
  EXPECT_FALSE(prof::CollectProfile(-1.0).ok());
  EXPECT_FALSE(prof::CollectProfile(prof::kMaxProfileSeconds + 1.0).ok());
}

TEST_F(ObsServerTest, ProfilezEndpointServesCollapsedStacks) {
  std::atomic<bool> stop{false};
  std::thread spinner([&stop] { ObsTestProfilerSpin(&stop); });
  ASSERT_TRUE(StartObservabilityServer(0).ok());
  const int port = ObservabilityServerPort();

  auto profile = HttpGet(port, "/profilez?seconds=0.4&clock=cpu");
  stop.store(true);
  spinner.join();
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->status, 200);
  EXPECT_FALSE(profile->body.empty());

  auto bad_clock = HttpGet(port, "/profilez?seconds=0.1&clock=nope");
  ASSERT_TRUE(bad_clock.ok());
  EXPECT_EQ(bad_clock->status, 400);
  auto bad_seconds = HttpGet(port, "/profilez?seconds=banana");
  ASSERT_TRUE(bad_seconds.ok());
  EXPECT_EQ(bad_seconds->status, 400);
}

// ---------------------------------------------------------------------------
// Rich span args in the Chrome-trace export

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST_F(ObsServerTest, WriteJsonEmitsTypedSpanArgs) {
  trace::Start();
  {
    EMBA_TRACE_SPAN_ARGS("obs_test/rich", {"epoch", 3},
                         {"threshold", 0.5},
                         {"dataset", trace::InternString(std::string("wdc"))});
  }
  trace::Stop();
  const std::string path = "/tmp/emba_obs_span_args_trace.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(trace::WriteJson(path).ok());
  const std::string json = ReadWholeFile(path);
  EXPECT_TRUE(IsJson(json));
  EXPECT_NE(json.find("\"epoch\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"threshold\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"dataset\": \"wdc\""), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// String escaping through the real JSON emitters

TEST_F(ObsServerTest, ControlBytesSurviveEveryJsonEmitter) {
  const std::string endpoint = "/a\x01" "b";
  const std::string arg = "a\nb\x1f";
  const std::string counter = "obs_test.quote\"name";

  // A request record: the access-log line and /rpcz.
  const std::string log_path = "/tmp/emba_obs_control_bytes_access.jsonl";
  std::filesystem::remove(log_path);
  rtrace::ResetForTest();
  rtrace::SetEnabled(true);
  ASSERT_TRUE(rtrace::SetAccessLogPath(log_path).ok());
  auto ctx = rtrace::StartRequest();
  ASSERT_NE(ctx, nullptr);
  ctx->SetEndpoint(endpoint);
  rtrace::FinishRequest(ctx, 200);
  ASSERT_TRUE(rtrace::FlushAccessLog().ok());
  EXPECT_EQ(StringAt(ParseJson(ReadWholeFile(log_path)), "endpoint"),
            endpoint);
  const json::Value rpcz = ParseJson(Get("/rpcz", "").body);
  const json::Value* retained = rpcz.Find("retained");
  ASSERT_TRUE(retained != nullptr && retained->is_array());
  ASSERT_EQ(retained->AsArray().size(), 1u);
  EXPECT_EQ(StringAt(retained->AsArray()[0], "endpoint"), endpoint);
  std::filesystem::remove(log_path);

  // A span with an interned string arg: the Chrome trace and /tracez.
  trace::Start();
  {
    EMBA_TRACE_SPAN_ARGS("obs_test/control_bytes",
                         {"s", trace::InternString(arg)});
  }
  trace::Stop();
  const std::string trace_path = "/tmp/emba_obs_control_bytes_trace.json";
  ASSERT_TRUE(trace::WriteJson(trace_path).ok());
  const json::Value chrome = ParseJson(ReadWholeFile(trace_path));
  std::filesystem::remove(trace_path);
  const json::Value tracez = ParseJson(Get("/tracez", "").body);
  for (const json::Value* doc : {&chrome, &tracez}) {
    const json::Value* span = EventNamed(
        *doc, doc == &chrome ? "traceEvents" : "events",
        "obs_test/control_bytes");
    ASSERT_NE(span, nullptr);
    ASSERT_NE(span->Find("args"), nullptr);
    EXPECT_EQ(StringAt(*span->Find("args"), "s"), arg);
  }

  // A counter name holding a quote: the metrics JSON dump.
  metrics::GetCounter(counter).Increment();
  const json::Value dump = ParseJson(metrics::Registry::Global().ToJson());
  ASSERT_NE(dump.Find("counters"), nullptr);
  EXPECT_NE(dump.Find("counters")->Find(counter), nullptr);
}

}  // namespace
}  // namespace emba
