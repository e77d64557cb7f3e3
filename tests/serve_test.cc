// Tier-1 tests for the online matching service (src/serve/): the
// DynamicBatcher's formation paths (batch-full fire, deadline fire, drain
// flush), its admission control (queue-overflow 429, draining 503,
// all-or-nothing group admission), the serving layer's core equivalence
// contract — a score obtained through any dynamically formed cross-request
// batch is bit-identical to the standalone single-pair forward — plus the
// HTTP surface: /match and /dedupe against offline references, 4xx mapping
// for malformed bodies, Retry-After on overflow, the SIGTERM drain
// protocol, and /metrics consistency under concurrent scoring.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <clocale>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/scoring.h"
#include "data/generator.h"
#include "pipeline/dedupe.h"
#include "serve/batcher.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/request_trace.h"

namespace emba {
namespace {

// ---------------------------------------------------------------------------
// Tiny blocking HTTP client (tests only): one request, Connection: close.

struct HttpResult {
  int status = 0;
  std::string body;
  std::map<std::string, std::string> headers;  // lowercased names
};

Result<HttpResult> HttpRoundTrip(int port, const std::string& request) {
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
  size_t line_start = raw.find("\r\n") + 2;
  while (line_start < header_end) {
    const size_t line_end = raw.find("\r\n", line_start);
    const std::string line = raw.substr(line_start, line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') {
        ++value_start;
      }
      result.headers[name] = line.substr(value_start);
    }
    line_start = line_end + 2;
  }
  return result;
}

Result<HttpResult> HttpPost(int port, const std::string& target,
                            const std::string& body) {
  return HttpRoundTrip(
      port, "POST " + target + " HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
            body);
}

Result<HttpResult> HttpGet(int port, const std::string& target) {
  return HttpRoundTrip(port, "GET " + target +
                                 " HTTP/1.1\r\nHost: localhost\r\n"
                                 "Connection: close\r\n\r\n");
}

// ---------------------------------------------------------------------------
// Shared tiny world: a generated dataset, its encoding, an untrained EMBA
// model (deterministic weights from a fixed seed), and a /dedupe catalog.
// Scores from an untrained model are arbitrary but fully deterministic,
// which is all the equivalence contract needs.

struct TinyWorld {
  data::EmDataset dataset;
  core::EncodedDataset encoded;
  std::unique_ptr<Rng> rng;
  std::unique_ptr<core::EmModel> model;
  std::vector<data::Record> catalog;
};

TinyWorld& World() {
  static TinyWorld* world = [] {
    auto* w = new TinyWorld();
    data::GeneratorOptions options;
    options.seed = 33;
    options.size_factor = 0.3;
    w->dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
    core::EncodeOptions encode_options;
    encode_options.max_len = 24;
    encode_options.wordpiece_vocab = 400;
    w->encoded = core::EncodeDataset(w->dataset, encode_options);
    w->rng = std::make_unique<Rng>(5);
    core::ModelBudget budget;
    budget.dim = 16;
    budget.layers = 1;
    budget.heads = 2;
    budget.max_len = 24;
    auto model = core::CreateModel("emba", budget,
                                   w->encoded.wordpiece->vocab().size(),
                                   w->encoded.num_id_classes, w->rng.get());
    EMBA_CHECK(model.ok());
    w->model = std::move(*model);
    w->model->SetTraining(false);
    std::map<std::string, bool> seen;
    for (const auto& pair : w->dataset.test) {
      for (const auto* record : {&pair.left, &pair.right}) {
        if (!seen.emplace(record->Description(), true).second) continue;
        w->catalog.push_back(*record);
        if (w->catalog.size() >= 24) break;
      }
      if (w->catalog.size() >= 24) break;
    }
    EMBA_CHECK(w->catalog.size() >= 8);
    return w;
  }();
  return *world;
}

data::LabeledPair PairOf(const std::string& left, const std::string& right) {
  data::LabeledPair pair;
  pair.left.attributes.emplace_back("text", left);
  pair.right.attributes.emplace_back("text", right);
  return pair;
}

/// The offline reference: one standalone eval-mode forward of the pair.
double ReferenceScore(const std::string& left, const std::string& right) {
  TinyWorld& world = World();
  const core::PairSample sample = core::EncodePair(
      world.encoded, PairOf(left, right), world.model->input_style());
  return core::MatchProbability(*world.model, sample);
}

std::string MatchBody(const std::string& left, const std::string& right) {
  return "{\"left\": \"" + json::Escape(left) + "\", \"right\": \"" +
         json::Escape(right) + "\"}";
}

/// Extracts a required number member from a JSON response body.
double JsonNumber(const std::string& body, const std::string& key) {
  auto parsed = json::Parse(body);
  EMBA_CHECK_MSG(parsed.ok(), "response body is not JSON: " + body);
  const json::Value* v = parsed->Find(key);
  EMBA_CHECK_MSG(v != nullptr && v->is_number(),
                 "missing number \"" + key + "\" in: " + body);
  return v->AsNumber();
}

serve::MatchService MakeService(serve::ServeConfig config) {
  TinyWorld& world = World();
  return serve::MatchService(world.model.get(), &world.encoded,
                             world.catalog, config);
}

// ---------------------------------------------------------------------------
// DynamicBatcher unit tests (fake ScoreFn; samples carry their identity in
// id1 so routing through batches is observable).

core::PairSample SampleWithId(int id) {
  core::PairSample sample;
  sample.id1 = id;
  return sample;
}

struct RecordingScorer {
  std::mutex mutex;
  std::vector<size_t> batch_sizes;

  serve::DynamicBatcher::ScoreFn Fn() {
    return [this](const std::vector<core::PairSample>& samples) {
      std::vector<double> scores;
      scores.reserve(samples.size());
      for (const auto& s : samples) scores.push_back(s.id1 * 10.0);
      std::lock_guard<std::mutex> lock(mutex);
      batch_sizes.push_back(samples.size());
      return scores;
    };
  }
};

constexpr int64_t kNeverUs = 60'000'000;  // deadline that won't fire in-test

TEST(DynamicBatcherTest, BatchFullFireFormsOneBatch) {
  metrics::Counter& full_fires = metrics::GetCounter("serve.batch_full_fires");
  const uint64_t full_before = full_fires.Value();
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 4;
  config.batch_deadline_us = kNeverUs;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 4; ++i) {
    auto f = batcher.Submit(SampleWithId(i));
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    futures.push_back(std::move(*f));
  }
  // The deadline is far away, so resolution proves the batch-full fire.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * 10.0);
  }
  {
    std::lock_guard<std::mutex> lock(scorer.mutex);
    ASSERT_EQ(scorer.batch_sizes.size(), 1u);
    EXPECT_EQ(scorer.batch_sizes[0], 4u);
  }
  EXPECT_GE(full_fires.Value(), full_before + 1);
}

TEST(DynamicBatcherTest, DeadlineFireScoresSingleStraggler) {
  metrics::Counter& deadline_fires =
      metrics::GetCounter("serve.batch_deadline_fires");
  const uint64_t before = deadline_fires.Value();
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 64;  // can never fill
  config.batch_deadline_us = 2000;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  auto f = batcher.Submit(SampleWithId(7));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->get(), 70.0);  // resolved without filling: deadline fired
  {
    std::lock_guard<std::mutex> lock(scorer.mutex);
    ASSERT_EQ(scorer.batch_sizes.size(), 1u);
    EXPECT_EQ(scorer.batch_sizes[0], 1u);
  }
  EXPECT_GE(deadline_fires.Value(), before + 1);
}

TEST(DynamicBatcherTest, DrainFlushesParkedRequests) {
  metrics::Counter& drain_fires =
      metrics::GetCounter("serve.batch_drain_fires");
  const uint64_t before = drain_fires.Value();
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 16;
  config.batch_deadline_us = kNeverUs;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  auto f1 = batcher.Submit(SampleWithId(1));
  auto f2 = batcher.Submit(SampleWithId(2));
  ASSERT_TRUE(f1.ok() && f2.ok());
  batcher.Drain();
  // Accepted requests are never dropped: drain scored them for real.
  EXPECT_EQ(f1->get(), 10.0);
  EXPECT_EQ(f2->get(), 20.0);
  EXPECT_GE(drain_fires.Value(), before + 1);
  {
    std::lock_guard<std::mutex> lock(scorer.mutex);
    ASSERT_EQ(scorer.batch_sizes.size(), 1u);
    EXPECT_EQ(scorer.batch_sizes[0], 2u);
  }
}

TEST(DynamicBatcherTest, QueueOverflowRejectsResourceExhausted) {
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 16;
  config.batch_deadline_us = kNeverUs;
  config.max_queue = 2;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  auto f1 = batcher.Submit(SampleWithId(1));
  auto f2 = batcher.Submit(SampleWithId(2));
  ASSERT_TRUE(f1.ok() && f2.ok());
  EXPECT_EQ(batcher.QueueDepth(), 2u);
  auto rejected = batcher.Submit(SampleWithId(3));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The rejection did not disturb the parked requests.
  batcher.Drain();
  EXPECT_EQ(f1->get(), 10.0);
  EXPECT_EQ(f2->get(), 20.0);
}

TEST(DynamicBatcherTest, SubmitGroupIsAllOrNothing) {
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 16;
  config.batch_deadline_us = kNeverUs;
  config.max_queue = 3;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  auto f1 = batcher.Submit(SampleWithId(1));
  auto f2 = batcher.Submit(SampleWithId(2));
  ASSERT_TRUE(f1.ok() && f2.ok());
  // 2 parked + 2 arriving > 3: the whole group bounces, nothing is parked.
  auto rejected = batcher.SubmitGroup({SampleWithId(3), SampleWithId(4)});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.QueueDepth(), 2u);
  // A group that fits is admitted whole.
  auto group = batcher.SubmitGroup({SampleWithId(5)});
  ASSERT_TRUE(group.ok());
  ASSERT_EQ(group->size(), 1u);
  batcher.Drain();
  EXPECT_EQ((*group)[0].get(), 50.0);
}

TEST(DynamicBatcherTest, GroupLargerThanMaxBatchSpansBatches) {
  RecordingScorer scorer;
  serve::BatcherConfig config;
  config.max_batch = 2;
  config.batch_deadline_us = 2000;
  config.max_queue = 16;
  serve::DynamicBatcher batcher(scorer.Fn(), config);
  std::vector<core::PairSample> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(SampleWithId(i));
  auto futures = batcher.SubmitGroup(std::move(samples));
  ASSERT_TRUE(futures.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ((*futures)[static_cast<size_t>(i)].get(), i * 10.0);
  }
  std::lock_guard<std::mutex> lock(scorer.mutex);
  // 5 samples through max_batch=2 → batches of 2, 2, 1; order preserved.
  ASSERT_EQ(scorer.batch_sizes.size(), 3u);
  EXPECT_EQ(scorer.batch_sizes[0], 2u);
  EXPECT_EQ(scorer.batch_sizes[1], 2u);
  EXPECT_EQ(scorer.batch_sizes[2], 1u);
}

TEST(DynamicBatcherTest, RejectsUnavailableAfterDrain) {
  RecordingScorer scorer;
  serve::DynamicBatcher batcher(scorer.Fn(), {});
  batcher.Drain();
  auto rejected = batcher.Submit(SampleWithId(1));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  batcher.Drain();  // idempotent
}

TEST(DynamicBatcherTest, ScoreFnExceptionPropagatesToEveryFuture) {
  serve::BatcherConfig config;
  config.batch_deadline_us = 1000;
  serve::DynamicBatcher batcher(
      [](const std::vector<core::PairSample>&) -> std::vector<double> {
        throw std::runtime_error("scorer exploded");
      },
      config);
  auto f1 = batcher.Submit(SampleWithId(1));
  auto f2 = batcher.Submit(SampleWithId(2));
  ASSERT_TRUE(f1.ok() && f2.ok());
  EXPECT_THROW(f1->get(), std::runtime_error);
  EXPECT_THROW(f2->get(), std::runtime_error);
  // The batcher thread survived the exception and still drains cleanly.
  batcher.Drain();
}

// ---------------------------------------------------------------------------
// HTTP service tests: the equivalence contract end to end.

TEST(MatchServiceTest, BatchFullFireScoresAreBitIdentical) {
  TinyWorld& world = World();
  metrics::Counter& full_fires = metrics::GetCounter("serve.batch_full_fires");
  const uint64_t full_before = full_fires.Value();

  serve::ServeConfig config;
  config.batcher.max_batch = 3;
  // A long deadline: the first three responses can only arrive promptly via
  // the batch-full fire; the fourth is the straggler the deadline sweeps up.
  config.batcher.batch_deadline_us = 1'000'000;
  config.http_workers = 4;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  const int kClients = 4;
  std::vector<std::string> lefts, rights;
  for (int i = 0; i < kClients; ++i) {
    lefts.push_back(world.catalog[static_cast<size_t>(i)].Description());
    rights.push_back(world.catalog[static_cast<size_t>(i) + 4].Description());
  }
  std::vector<HttpResult> results(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto r = HttpPost(service.port(), "/match", MatchBody(lefts[i], rights[i]));
      if (r.ok()) results[static_cast<size_t>(i)] = *r;
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(results[static_cast<size_t>(i)].status, 200) << "client " << i;
    const double served =
        JsonNumber(results[static_cast<size_t>(i)].body, "match_probability");
    // Bit-identical, not approximately equal: the dynamically formed batch
    // must reproduce the standalone forward exactly.
    EXPECT_EQ(served, ReferenceScore(lefts[static_cast<size_t>(i)],
                                     rights[static_cast<size_t>(i)]))
        << "client " << i;
  }
  EXPECT_GE(full_fires.Value(), full_before + 1);
  service.Shutdown();
  EXPECT_FALSE(service.Running());
}

TEST(MatchServiceTest, DeadlineFireScoresAreBitIdentical) {
  TinyWorld& world = World();
  metrics::Counter& deadline_fires =
      metrics::GetCounter("serve.batch_deadline_fires");
  const uint64_t before = deadline_fires.Value();

  serve::ServeConfig config;
  config.batcher.max_batch = 64;  // can never fill: deadline path only
  config.batcher.batch_deadline_us = 2000;
  config.http_workers = 2;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  for (int i = 0; i < 2; ++i) {
    const std::string left = world.catalog[static_cast<size_t>(i)].Description();
    const std::string right =
        world.catalog[static_cast<size_t>(i) + 2].Description();
    auto r = HttpPost(service.port(), "/match", MatchBody(left, right));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->status, 200);
    EXPECT_EQ(JsonNumber(r->body, "match_probability"),
              ReferenceScore(left, right));
    EXPECT_EQ(r->headers.at("content-type"), "application/json");
  }
  EXPECT_GE(deadline_fires.Value(), before + 2);
  service.Shutdown();
}

TEST(MatchServiceTest, DedupeMatchesOfflineReference) {
  TinyWorld& world = World();
  serve::ServeConfig config;
  config.http_workers = 2;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  const std::string query = world.catalog[0].Description();
  auto r = HttpPost(service.port(), "/dedupe",
                    "{\"record\": \"" + json::Escape(query) +
                        "\", \"top_k\": 5}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200);

  // Offline reference: same blocker config, standalone single-pair forwards.
  block::TokenBlocker blocker(service.config().blocker);
  const pipeline::CandidateSet reference = pipeline::BuildCandidateSamples(
      world.encoded, blocker, world.catalog[0], world.catalog,
      world.model->input_style());
  std::map<size_t, double> reference_scores;
  for (size_t c = 0; c < reference.samples.size(); ++c) {
    reference_scores[reference.catalog_indices[c]] =
        core::MatchProbability(*world.model, reference.samples[c]);
  }

  auto parsed = json::Parse(r->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(static_cast<size_t>(JsonNumber(r->body, "candidates_considered")),
            reference.samples.size());
  const json::Value* candidates = parsed->Find("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_TRUE(candidates->is_array());
  ASSERT_LE(candidates->AsArray().size(), 5u);
  ASSERT_FALSE(candidates->AsArray().empty());
  double previous = 2.0;
  for (const auto& candidate : candidates->AsArray()) {
    const size_t index =
        static_cast<size_t>(candidate.Find("catalog_index")->AsNumber());
    const double probability =
        candidate.Find("match_probability")->AsNumber();
    ASSERT_TRUE(reference_scores.count(index)) << "index " << index;
    EXPECT_EQ(probability, reference_scores[index]) << "index " << index;
    EXPECT_LE(probability, previous);  // ranked descending
    previous = probability;
  }
  service.Shutdown();
}

TEST(MatchServiceTest, QueueOverflowAnswers429WithRetryAfter) {
  TinyWorld& world = World();
  serve::ServeConfig config;
  config.batcher.max_batch = 16;
  config.batcher.max_queue = 1;
  config.batcher.batch_deadline_us = 30'000'000;  // parks until drain
  config.http_workers = 3;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  const std::string left = world.catalog[0].Description();
  const std::string right = world.catalog[1].Description();
  HttpResult parked;
  std::thread client([&] {
    auto r = HttpPost(service.port(), "/match", MatchBody(left, right));
    if (r.ok()) parked = *r;
  });
  // Wait until the first request is parked in the batch queue.
  metrics::Gauge& depth = metrics::GetGauge("serve.queue_depth");
  for (int spin = 0; spin < 2000 && depth.Value() < 1.0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(depth.Value(), 1.0) << "first request never parked";

  auto rejected = HttpPost(service.port(), "/match", MatchBody(right, left));
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status, 429);
  ASSERT_TRUE(rejected->headers.count("retry-after"));
  EXPECT_FALSE(rejected->headers.at("retry-after").empty());
  EXPECT_NE(rejected->body.find("queue full"), std::string::npos);

  // Drain completes the parked request with a real, bit-identical score.
  service.Shutdown();
  client.join();
  ASSERT_EQ(parked.status, 200);
  EXPECT_EQ(JsonNumber(parked.body, "match_probability"),
            ReferenceScore(left, right));
}

// RFC 9110: Retry-After is a non-negative integer number of seconds. The
// two rejection statuses must hint differently — 429 (queue full) clears
// within about one batch deadline, 503 (draining) means this process is
// going away and clients should back off much harder.
TEST(MatchServiceTest, RetryAfterHintsAreIntegerSecondsAndDistinct) {
  TinyWorld& world = World();
  const std::string left = world.catalog[0].Description();
  const std::string right = world.catalog[1].Description();

  auto expect_integer_seconds = [](const std::string& hint) {
    ASSERT_FALSE(hint.empty());
    for (char c : hint) {
      ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(c)))
          << "Retry-After '" << hint << "' is not a non-negative integer";
    }
  };

  // Large deadline: the 429 hint is ceil(deadline) = 30 s; the same
  // service's 503 (post-drain, via the socketless Handle seam) must be
  // strictly larger.
  serve::ServeConfig config;
  config.batcher.max_batch = 16;
  config.batcher.max_queue = 1;
  config.batcher.batch_deadline_us = 30'000'000;
  config.http_workers = 3;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  HttpResult parked;
  std::thread client([&] {
    auto r = HttpPost(service.port(), "/match", MatchBody(left, right));
    if (r.ok()) parked = *r;
  });
  metrics::Gauge& depth = metrics::GetGauge("serve.queue_depth");
  for (int spin = 0; spin < 2000 && depth.Value() < 1.0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(depth.Value(), 1.0) << "first request never parked";
  auto rejected = HttpPost(service.port(), "/match", MatchBody(right, left));
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  ASSERT_EQ(rejected->status, 429);
  ASSERT_TRUE(rejected->headers.count("retry-after"));
  const std::string hint_429 = rejected->headers.at("retry-after");
  expect_integer_seconds(hint_429);
  EXPECT_EQ(hint_429, "30");

  service.Shutdown();
  client.join();
  ASSERT_EQ(parked.status, 200);

  http::HttpRequest match_request;
  match_request.method = "POST";
  match_request.path = "/match";
  match_request.body = MatchBody(left, right);
  http::HttpResponse drained = service.Handle(match_request);
  EXPECT_EQ(drained.status, 503);
  std::string hint_503;
  for (const auto& [name, value] : drained.extra_headers) {
    if (name == "Retry-After") hint_503 = value;
  }
  expect_integer_seconds(hint_503);
  EXPECT_EQ(hint_503, "60");  // 2× the 429 hint
  EXPECT_NE(hint_503, hint_429);

  // Sub-second deadline: hints must round UP to whole seconds, never down
  // to "0" (or a fraction). The 503 hint max(5, 2·ceil(deadline)) = 5
  // proves the inner 429 quantity evaluated to 1 s, not 0.002 s.
  serve::ServeConfig fast_config;
  fast_config.batcher.batch_deadline_us = 2000;
  serve::MatchService fast = MakeService(fast_config);
  ASSERT_TRUE(fast.Start(0).ok());
  fast.Shutdown();
  http::HttpResponse fast_rejected = fast.Handle(match_request);
  EXPECT_EQ(fast_rejected.status, 503);
  std::string fast_hint;
  for (const auto& [name, value] : fast_rejected.extra_headers) {
    if (name == "Retry-After") fast_hint = value;
  }
  expect_integer_seconds(fast_hint);
  EXPECT_EQ(fast_hint, "5");
}

TEST(MatchServiceTest, SigtermDrainProtocol) {
  serve::ServeConfig config;
  config.http_workers = 2;
  serve::MatchService service = MakeService(config);
  serve::InstallDrainSignalHandlers();
  serve::ResetDrainRequestedForTest();
  ASSERT_TRUE(service.Start(0).ok());
  const int port = service.port();

  auto healthy = HttpGet(port, "/healthz");
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->status, 200);
  EXPECT_FALSE(serve::DrainRequested());

  // The CLI's serve loop: SIGTERM sets the flag and flips /healthz; the
  // loop then runs Shutdown from normal context.
  raise(SIGTERM);
  EXPECT_TRUE(serve::DrainRequested());
  auto draining = HttpGet(port, "/healthz");
  ASSERT_TRUE(draining.ok());
  EXPECT_EQ(draining->status, 503);
  EXPECT_NE(draining->body.find("draining"), std::string::npos);

  service.Shutdown();
  EXPECT_FALSE(service.Running());
  // The listener is gone: connections are refused, not wedged.
  EXPECT_FALSE(HttpGet(port, "/healthz").ok());
  service.Shutdown();  // idempotent
  serve::ResetDrainRequestedForTest();
  SetHealthState(HealthState::kScoring);
}

TEST(MatchServiceTest, ConcurrentMatchesAndMetricsScrapesStayConsistent) {
  TinyWorld& world = World();
  serve::ServeConfig config;
  config.batcher.batch_deadline_us = 1000;
  config.http_workers = 3;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  std::atomic<int> failures{0};
  std::thread scraper([&] {
    for (int i = 0; i < 8; ++i) {
      auto r = HttpGet(service.port(), "/metrics");
      if (!r.ok() || r->status != 200 ||
          r->body.find("emba_serve_http_requests") == std::string::npos ||
          r->body.find("emba_serve_batch_size_bucket") == std::string::npos) {
        failures.fetch_add(1);
      }
    }
  });
  const std::string left = world.catalog[2].Description();
  const std::string right = world.catalog[3].Description();
  const double reference = ReferenceScore(left, right);
  std::thread matcher([&] {
    for (int i = 0; i < 6; ++i) {
      auto r = HttpPost(service.port(), "/match", MatchBody(left, right));
      if (!r.ok() || r->status != 200 ||
          JsonNumber(r->body, "match_probability") != reference) {
        failures.fetch_add(1);
      }
    }
  });
  scraper.join();
  matcher.join();
  EXPECT_EQ(failures.load(), 0);
  service.Shutdown();
}

TEST(MatchServiceTest, BadRequestsAnswer4xx) {
  serve::ServeConfig config;
  config.batcher.batch_deadline_us = 1000;
  config.http_workers = 2;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());
  const int port = service.port();

  auto malformed = HttpPost(port, "/match", "{\"left\": ");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed->status, 400);
  EXPECT_NE(malformed->body.find("JSON parse error"), std::string::npos);

  auto missing = HttpPost(port, "/match", "{\"left\": \"only one side\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);

  auto wrong_type = HttpPost(port, "/match",
                             "{\"left\": \"a\", \"right\": 42}");
  ASSERT_TRUE(wrong_type.ok());
  EXPECT_EQ(wrong_type->status, 400);

  auto get_match = HttpGet(port, "/match");
  ASSERT_TRUE(get_match.ok());
  EXPECT_EQ(get_match->status, 405);
  EXPECT_EQ(get_match->headers.at("allow"), "POST");

  auto bad_top_k = HttpPost(port, "/dedupe",
                            "{\"record\": \"x\", \"top_k\": 0}");
  ASSERT_TRUE(bad_top_k.ok());
  EXPECT_EQ(bad_top_k->status, 400);

  auto unknown = HttpGet(port, "/nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Request-scoped tracing acceptance: with EMBA_RTRACE semantics enabled, a
// deadline-batched request must be retrievable by its response trace id via
// /rpcz, carry a stage breakdown that accounts for its e2e latency, link the
// batch sibling it shared compute with, and surface as an exemplar on the
// /metrics exposition. With tracing off, none of the machinery may engage.

TEST(MatchServiceTest, TracingAttributesStagesBatchSiblingsAndExemplars) {
  TinyWorld& world = World();
  rtrace::ResetForTest();
  rtrace::SetEnabled(true);

  serve::ServeConfig config;
  config.batcher.max_batch = 64;  // can never fill: both clients share one
  config.batcher.batch_deadline_us = 80'000;  // deadline-fired batch
  config.http_workers = 3;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  const std::string left = world.catalog[0].Description();
  const std::string right = world.catalog[1].Description();
  HttpResult results[2];
  std::thread clients[2];
  for (int i = 0; i < 2; ++i) {
    clients[i] = std::thread([&, i] {
      auto r = HttpPost(service.port(), "/match",
                        i == 0 ? MatchBody(left, right)
                               : MatchBody(right, left));
      if (r.ok()) results[i] = *r;
    });
  }
  for (auto& t : clients) t.join();

  // Every traced response names its trace id in a header.
  std::string hex[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(results[i].status, 200) << "client " << i;
    ASSERT_TRUE(results[i].headers.count("x-emba-trace-id")) << "client " << i;
    hex[i] = results[i].headers.at("x-emba-trace-id");
    EXPECT_EQ(hex[i].size(), 16u);
  }
  EXPECT_NE(hex[0], hex[1]);

  // The slow (deadline-parked) request is retained and retrievable by id.
  rtrace::RequestRecord record;
  ASSERT_TRUE(rtrace::FindRetainedHex(hex[0], &record))
      << "trace " << hex[0] << " not retained";
  EXPECT_EQ(record.endpoint, "/match");
  EXPECT_EQ(record.status, 200);
  EXPECT_FALSE(record.in_flight);
  // Queue wait dominates a deadline fire; e2e must reflect the ~80 ms park.
  EXPECT_GE(record.e2e_ms, 50.0);

  // The stage breakdown accounts for the request's latency: stages plus the
  // unattributed remainder reconstruct e2e, and the attributed share (the
  // queue wait alone is ~the whole deadline) carries most of it.
  double stage_sum = 0.0;
  for (int s = 0; s < rtrace::kStageCount; ++s) stage_sum += record.stage_ms[s];
  EXPECT_LE(stage_sum, record.e2e_ms + 0.5);
  EXPECT_GE(stage_sum, 0.6 * record.e2e_ms);
  EXPECT_NEAR(stage_sum + record.other_ms, record.e2e_ms, 0.5);
  EXPECT_GT(record.stage_ms[static_cast<int>(rtrace::Stage::kQueueWait)], 0.0);
  EXPECT_GT(record.stage_ms[static_cast<int>(rtrace::Stage::kCompute)], 0.0);

  // Both requests rode one deadline-fired batch: the span links its sibling.
  ASSERT_TRUE(record.has_batch);
  EXPECT_EQ(record.batch_size, 2);
  EXPECT_EQ(record.fire_reason, "deadline");
  ASSERT_GE(record.sibling_trace_ids.size(), 1u);
  bool sibling_found = false;
  for (const std::string& sibling : record.sibling_trace_ids) {
    if (sibling == hex[1]) sibling_found = true;
  }
  EXPECT_TRUE(sibling_found) << "batch span does not link client 1";

  // /rpcz serves the same record over HTTP, by trace id and in the listing.
  auto by_id = HttpGet(service.port(), "/rpcz?trace_id=" + hex[0]);
  ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
  ASSERT_EQ(by_id->status, 200);
  EXPECT_NE(by_id->body.find("\"" + hex[0] + "\""), std::string::npos);
  EXPECT_NE(by_id->body.find("\"fire_reason\": \"deadline\""),
            std::string::npos);
  auto listing = HttpGet(service.port(), "/rpcz?format=json");
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->status, 200);
  EXPECT_NE(listing->body.find(hex[0]), std::string::npos);
  EXPECT_NE(listing->body.find(hex[1]), std::string::npos);

  // The e2e histogram carries an exemplar naming a retained trace id.
  auto metrics_page = HttpGet(service.port(), "/metrics");
  ASSERT_TRUE(metrics_page.ok());
  ASSERT_EQ(metrics_page->status, 200);
  EXPECT_NE(metrics_page->body.find(" # {trace_id=\""), std::string::npos);
  EXPECT_TRUE(
      metrics_page->body.find("# {trace_id=\"" + hex[0] + "\"") !=
          std::string::npos ||
      metrics_page->body.find("# {trace_id=\"" + hex[1] + "\"") !=
          std::string::npos)
      << "no exemplar references either request's trace id";

  service.Shutdown();
  rtrace::SetEnabled(false);
  rtrace::ResetForTest();
}

TEST(MatchServiceTest, TracingOffLeavesNoHeaderAndRetainsNothing) {
  TinyWorld& world = World();
  rtrace::SetEnabled(false);
  rtrace::ResetForTest();

  serve::ServeConfig config;
  config.batcher.batch_deadline_us = 1000;
  config.http_workers = 2;
  serve::MatchService service = MakeService(config);
  ASSERT_TRUE(service.Start(0).ok());

  auto r = HttpPost(service.port(), "/match",
                    MatchBody(world.catalog[0].Description(),
                              world.catalog[1].Description()));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->status, 200);
  EXPECT_EQ(r->headers.count("x-emba-trace-id"), 0u);
  EXPECT_TRUE(rtrace::SnapshotRetained().empty());
  EXPECT_TRUE(rtrace::SnapshotInFlight().empty());

  // /rpcz stays serviceable while tracing is off — it just has nothing.
  auto rpcz = HttpGet(service.port(), "/rpcz?format=json");
  ASSERT_TRUE(rpcz.ok());
  ASSERT_EQ(rpcz->status, 200);
  EXPECT_NE(rpcz->body.find("\"tracing\": false"), std::string::npos);

  service.Shutdown();
}

// ---------------------------------------------------------------------------
// serve::json unit tests: the response fidelity and hostile-input corners
// the HTTP tests rely on.

TEST(ServeJsonTest, NumberRoundTripsBitExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 5e-324, 0.49999999999999994,
                           1234567.891011, 1.0};
  for (double v : values) {
    auto parsed = json::Parse(json::NumberToString(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsNumber(), v);
  }
}

// Regression: number parse/format used std::strtod and printf %g, both of
// which honor LC_NUMERIC — under a comma-decimal locale "0.75" truncated
// to 0 on parse and scores printed as invalid JSON ("0,5"). The test image
// only ships the C locale, so a comma-decimal one is generated on the fly
// with localedef; skipped (not silently passed) when that tool is absent.
TEST(ServeJsonTest, NumbersAreLocaleIndependent) {
  const std::string locale_dir = ::testing::TempDir() + "/emba_locales";
  const std::string cmd = "mkdir -p '" + locale_dir +
                          "' && localedef -i de_DE -f UTF-8 '" + locale_dir +
                          "/de_DE.UTF-8' >/dev/null 2>&1";
  if (std::system(cmd.c_str()) != 0) {
    GTEST_SKIP() << "localedef cannot build a comma-decimal locale here";
  }
  ASSERT_EQ(setenv("LOCPATH", locale_dir.c_str(), 1), 0);
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") == nullptr) {
    unsetenv("LOCPATH");
    GTEST_SKIP() << "generated de_DE.UTF-8 locale did not activate";
  }
  // The locale really is comma-decimal — otherwise this test proves nothing.
  char probe[32];
  std::snprintf(probe, sizeof(probe), "%.1f", 1.5);
  EXPECT_STREQ(probe, "1,5");

  auto parsed = json::Parse("{\"p\": 0.75, \"q\": 1.5e-3}");
  std::string printed_half = json::NumberToString(0.5);
  auto round_trip = json::Parse(json::NumberToString(1.0 / 3.0));

  std::setlocale(LC_ALL, "C");
  unsetenv("LOCPATH");

  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("p")->AsNumber(), 0.75);
  EXPECT_EQ(parsed->Find("q")->AsNumber(), 1.5e-3);
  EXPECT_EQ(printed_half, "0.5");
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_EQ(round_trip->AsNumber(), 1.0 / 3.0);
}

TEST(ServeJsonTest, ParsesNestedDocument) {
  auto parsed = json::Parse(
      "{\"a\": [1, 2.5, \"s\\u00e9\"], \"b\": {\"c\": true, \"d\": null}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  const json::Value* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray()[2].AsString(), "s\xc3\xa9");
  EXPECT_TRUE(parsed->Find("b")->Find("c")->AsBool());
  EXPECT_TRUE(parsed->Find("b")->Find("d")->is_null());
}

TEST(ServeJsonTest, RejectsHostileInput) {
  // Unterminated, trailing garbage, deep nesting, bad escapes: all clean
  // InvalidArgument errors, never a crash.
  EXPECT_FALSE(json::Parse("{\"a\": ").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("\"\\q\"").ok());
  EXPECT_FALSE(json::Parse("01").ok());
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  auto nested = json::Parse(deep);
  ASSERT_FALSE(nested.ok());
  EXPECT_NE(nested.status().message().find("deep"), std::string::npos);
}

TEST(ServeJsonTest, EscapeProtectsControlAndQuoteCharacters) {
  EXPECT_EQ(json::Escape("a\"b\\c\nd\x01"),
            "a\\\"b\\\\c\\nd\\u0001");
}

}  // namespace
}  // namespace emba
