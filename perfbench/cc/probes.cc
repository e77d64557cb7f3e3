// Per-layer probes of traced runs: each public entry point below is timed
// on its own, at the deployed shapes, from the benchmark's side of the
// call.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "autograd/var.h"
#include "core/aoa.h"
#include "core/registry.h"
#include "core/scoring.h"
#include "core/transformer_em.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "serve/json.h"
#include "serve/service.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace emba;

namespace {

// Percentile `q` of the observations a histogram received between two
// snapshots of it.
double PercentileBetween(const metrics::Histogram::Snapshot& before,
                         const metrics::Histogram::Snapshot& after,
                         double q) {
  metrics::Histogram::Snapshot diff;
  diff.bounds = after.bounds;
  diff.bucket_counts = after.bucket_counts;
  for (size_t i = 0; i < diff.bucket_counts.size(); ++i) {
    if (i < before.bucket_counts.size()) {
      diff.bucket_counts[i] -= before.bucket_counts[i];
    }
    diff.count += diff.bucket_counts[i];
  }
  return metrics::Histogram::PercentileFromSnapshot(diff, q);
}

// One blocking HTTP POST to 127.0.0.1:`port` with Connection: close.
struct Reply {
  int status = 0;  // 0 = transport error
  std::string body;
};

Reply Post(int port, const char* path, const std::string& body) {
  Reply reply;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return reply;
  }
  const std::string request = std::string("POST ") + path +
                              " HTTP/1.1\r\nHost: bench\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) +
                              "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  if (response.rfind("HTTP/1.1 ", 0) != 0) return reply;
  reply.status = std::atoi(response.c_str() + 9);
  const size_t head_end = response.find("\r\n\r\n");
  if (head_end != std::string::npos) reply.body = response.substr(head_end + 4);
  return reply;
}

// The serve.* counters and histograms at one instant.
struct ServeCounters {
  uint64_t batches = 0, deadline_fires = 0, admitted = 0, rejected = 0;
  metrics::Histogram::Snapshot batch_size, queue_wait;
  static ServeCounters Now();
};

ServeCounters ServeCounters::Now() {
  ServeCounters c;
  c.batches = metrics::GetCounter("serve.batches_total").Value();
  c.deadline_fires = metrics::GetCounter("serve.batch_deadline_fires").Value();
  c.admitted = metrics::GetCounter("serve.requests_admitted").Value();
  c.rejected = metrics::GetCounter("serve.rejected_queue_full").Value() +
               metrics::GetCounter("serve.rejected_draining").Value();
  c.batch_size = metrics::GetHistogram("serve.batch_size").GetSnapshot();
  c.queue_wait = metrics::GetHistogram("serve.queue_wait_ms").GetSnapshot();
  return c;
}

double MeanBatchSize(const ServeCounters& before, const ServeCounters& after) {
  const double n =
      static_cast<double>(after.batch_size.count - before.batch_size.count);
  return n > 0 ? (after.batch_size.sum - before.batch_size.sum) / n : 0.0;
}

void ReportServeLayers(const ServeCounters& before, const ServeCounters& after,
                       Report* report) {
  const double batches = static_cast<double>(after.batches - before.batches);
  const double fires =
      static_cast<double>(after.deadline_fires - before.deadline_fires);
  const double rejected = static_cast<double>(after.rejected - before.rejected);
  const double admitted = static_cast<double>(after.admitted - before.admitted);
  report->Add("serve.batch_size_mean", MeanBatchSize(before, after), "count");
  report->Add("serve.deadline_fire_share", batches > 0 ? fires / batches : 0.0,
              "share");
  report->Add("serve.queue_wait_p50_ms",
              PercentileBetween(before.queue_wait, after.queue_wait, 0.50),
              "ms");
  report->Add("serve.queue_wait_p99_ms",
              PercentileBetween(before.queue_wait, after.queue_wait, 0.99),
              "ms");
  report->Add("serve.rejected_share",
              admitted + rejected > 0 ? rejected / (admitted + rejected) : 0.0,
              "share");
}

}  // namespace

PoolWindow PoolWindow::Now() {
  PoolWindow w;
  w.chunks_total = metrics::GetCounter("threadpool.chunks_total").Value();
  w.chunks_stolen = metrics::GetCounter("threadpool.chunks_stolen").Value();
  w.queue_wait =
      metrics::GetHistogram("threadpool.queue_wait_us").GetSnapshot();
  return w;
}

void ReportPool(const PoolWindow& before, const PoolWindow& after,
                Report* report) {
  const double total =
      static_cast<double>(after.chunks_total - before.chunks_total);
  report->Add("util.pool_stolen_share",
              total > 0 ? static_cast<double>(after.chunks_stolen -
                                              before.chunks_stolen) /
                              total
                        : 0.0,
              "share");
  report->Add("util.pool_queue_wait_p99_us",
              PercentileBetween(before.queue_wait, after.queue_wait, 0.99),
              "us");
}

std::vector<double> SerialReferenceScores(
    const core::EmModel& model, const std::vector<core::PairSample>& samples) {
  // A one-thread pool keeps every matmul of a pair on its own thread, so
  // each score is the serial single-pair computation.
  SetGlobalThreads(1);
  std::vector<double> scores(samples.size());
  const size_t workers = kBenchThreads;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = w; i < samples.size(); i += workers) {
        scores[i] = core::MatchProbability(model, samples[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  SetGlobalThreads(kBenchThreads);
  return scores;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {

constexpr size_t kProbePairs = 200;
constexpr size_t kServeCatalog = 50;
constexpr size_t kServeLoadRequests = 2000;
constexpr int kProbeRounds = 4;

struct GemmShape {
  int64_t k, n, per_layer;
};
// The Linear shapes of one encoder block: Q, K, V, O projections and the
// two FFN matmuls (ffn_dim = 2 * dim).
std::vector<GemmShape> EncoderGemmShapes(int64_t dim) {
  return {{dim, dim, 4}, {dim, 2 * dim, 1}, {2 * dim, dim, 1}};
}

void GemmProbes(int64_t m, int64_t dim, Report* report) {
  Rng rng(11);
  const auto shapes = EncoderGemmShapes(dim);
  struct Operands {
    Tensor x, w;
    int8::LinearWeightCache cache;
  };
  std::vector<std::unique_ptr<Operands>> ops;
  double flops = 0.0, fp32_bytes = 0.0, int8_bytes = 0.0;
  for (const auto& s : shapes) {
    auto op = std::make_unique<Operands>();
    op->x = Tensor::RandomUniform({m, s.k}, &rng, -1.0f, 1.0f);
    op->w = Tensor::RandomUniform({s.k, s.n}, &rng, -0.5f, 0.5f);
    ops.push_back(std::move(op));
    const double calls = static_cast<double>(s.per_layer);
    flops += calls * 2.0 * static_cast<double>(m * s.k * s.n);
    // Computed from tensor sizes: fp32 reads x and w and writes y; int8
    // reads fp32 x, the packed int8 weight and writes fp32 y.
    fp32_bytes += calls * 4.0 * static_cast<double>(m * s.k + s.k * s.n +
                                                     m * s.n);
    int8_bytes += calls * static_cast<double>(4 * m * s.k + s.k * s.n +
                                              4 * m * s.n);
  }
  auto run = [&](bool int8_path, const char* span_name) {
    ScopedSpan span(span_name);
    ag::InferenceModeGuard inference;
    ActivationArena::Scope arena;
    const int iterations = 2000;
    for (int warm = 0; warm < 2; ++warm) {  // builds the int8 weight caches
      for (size_t i = 0; i < shapes.size(); ++i) {
        if (int8_path) int8::Int8MatMul(ops[i]->x, ops[i]->w, &ops[i]->cache);
      }
      ActivationArena::Reset();
    }
    const Clock::time_point start = Clock::now();
    for (int it = 0; it < iterations; ++it) {
      for (size_t i = 0; i < shapes.size(); ++i) {
        for (int64_t c = 0; c < shapes[i].per_layer; ++c) {
          Tensor y = int8_path ? int8::Int8MatMul(ops[i]->x, ops[i]->w,
                                                  &ops[i]->cache)
                               : MatMul(ops[i]->x, ops[i]->w);
        }
      }
      ActivationArena::Reset();
    }
    return flops * iterations / SecondsSince(start) / 1e9;
  };
  report->Add("tensor.gemm_fp32_gflops", run(false, "tensor.MatMul"),
              "GFLOP/s");
  report->Add("tensor.gemm_int8_gflops", run(true, "tensor.Int8MatMul"),
              "GFLOP/s");
  report->Add("tensor.gemm_fp32_bytes", fp32_bytes, "B");
  report->Add("tensor.gemm_int8_bytes", int8_bytes, "B");
}

// Pairs per second of BatchMatchProbabilities at the current pool width.
double BatchRate(const core::EmModel& model,
                 const std::vector<core::PairSample>& samples) {
  core::BatchMatchProbabilities(model, samples);  // warm-up
  size_t scored = 0;
  const Clock::time_point start = Clock::now();
  do {
    scored += core::BatchMatchProbabilities(model, samples).size();
  } while (SecondsSince(start) < 0.5);
  return static_cast<double>(scored) / SecondsSince(start);
}

void EntitySpan(const text::EncodedPair& enc, bool first, int64_t* begin,
                int64_t* end) {
  // Same clamp as the model: an empty entity span falls back to [CLS].
  *begin = first ? enc.e1_begin : enc.e2_begin;
  *end = first ? enc.e1_end : enc.e2_end;
  if (*end <= *begin) {
    *begin = 0;
    *end = 1;
  }
}

// The record the service builds from a request's text.
data::Record TextRecord(const std::string& text) {
  data::Record record;
  record.attributes.emplace_back("text", text);
  return record;
}

// The serving layers of a MatchService with the default ServeConfig over a
// small catalog drawn from the workload's records. Every reply is an
// operation: a status other than 200 is a failed one, and every 200 /match
// score must bit-equal offline MatchProbability of the same pair.
void ServeHandlerProbes(Matcher& matcher,
                        const std::vector<data::LabeledPair>& pairs,
                        const Options& opt, Ledger* ledger, Report* report) {
  std::vector<std::string> bodies;
  for (size_t i = 0; i < pairs.size() && bodies.size() < kProbePairs; ++i) {
    bodies.push_back("{\"left\": \"" +
                     serve::json::Escape(pairs[i].left.Description()) +
                     "\", \"right\": \"" +
                     serve::json::Escape(pairs[i].right.Description()) +
                     "\"}");
  }
  std::vector<double> parse_us, handle_us, socket_us;
  {
    ScopedSpan span("serve.json.Parse");
    bool parsed_all = true;
    for (const auto& body : bodies) {
      const Clock::time_point t = Clock::now();
      auto parsed = serve::json::Parse(body);
      parse_us.push_back(SecondsSince(t) * 1e6);
      parsed_all = parsed_all && parsed.ok();
    }
    ledger->Check(parsed_all, "every /match body parses");
  }
  std::vector<data::Record> catalog;
  for (size_t i = 0; i < pairs.size() && catalog.size() < kServeCatalog; ++i) {
    catalog.push_back(pairs[i].right);
  }
  serve::MatchService service(matcher.model.get(), &matcher.encoded, catalog);
  const Status started = service.Start(0);
  EMBA_CHECK_MSG(started.ok(), started.ToString());

  // (body index, served score) of every /match answered 200.
  std::vector<std::pair<size_t, double>> served;
  size_t match_requests = 0;
  auto account = [&](int status, const std::string& body, bool dedupe,
                     size_t index) {
    ledger->Attempt();
    match_requests += !dedupe;
    if (status != 200) {
      ledger->Fail();
      return;
    }
    if (dedupe) return;
    auto parsed = serve::json::Parse(body);
    const serve::json::Value* score =
        parsed.ok() ? parsed->Find("match_probability") : nullptr;
    served.emplace_back(index, score != nullptr && score->is_number()
                                   ? score->AsNumber()
                                   : std::nan(""));
  };
  auto request_for = [&](size_t i) {
    http::HttpRequest request;
    request.method = "POST";
    // Every tenth request is a /dedupe of a left record.
    const bool dedupe = i % 10 == 9;
    request.path = dedupe ? "/dedupe" : "/match";
    request.body =
        dedupe ? "{\"record\": \"" +
                     serve::json::Escape(
                         pairs[i % pairs.size()].left.Description()) +
                     "\"}"
               : bodies[i % bodies.size()];
    return request;
  };
  {
    // The handler with its batcher, one /match at a time, no sockets.
    ScopedSpan span("serve.MatchService.Handle");
    for (size_t i = 0; i < bodies.size(); ++i) {
      http::HttpRequest request;
      request.method = "POST";
      request.path = "/match";
      request.body = bodies[i];
      ScopedSpan request_span("serve.request", static_cast<int64_t>(i));
      const Clock::time_point t = Clock::now();
      http::HttpResponse response = service.Handle(request);
      handle_us.push_back(SecondsSince(t) * 1e6);
      account(response.status, response.body, false, i);
    }
  }
  {
    // The same requests over one socket: the difference is HTTP.
    ScopedSpan span("serve.http");
    for (size_t i = 0; i < bodies.size(); ++i) {
      ScopedSpan request_span(
          "serve.request", static_cast<int64_t>(bodies.size() + i));
      const Clock::time_point t = Clock::now();
      const Reply reply = Post(service.port(), "/match", bodies[i]);
      socket_us.push_back(SecondsSince(t) * 1e6);
      account(reply.status, reply.body, false, i);
    }
  }
  {
    // Four in-process clients sending back to back, 10% /dedupe: the
    // window that gives the serve.* batching metrics.
    ScopedSpan span("serve.concurrent_handle");
    const ServeCounters before = ServeCounters::Now();
    std::vector<std::vector<std::pair<size_t, http::HttpResponse>>> replies(
        kBenchThreads);
    std::vector<std::thread> clients;
    const int32_t window_span = Spans::Current();
    for (size_t c = 0; c < replies.size(); ++c) {
      clients.emplace_back([&, c] {
        AdoptParent adopt(window_span);
        for (size_t i = c; i < kServeLoadRequests; i += replies.size()) {
          ScopedSpan request_span(
              "serve.request", static_cast<int64_t>(2 * bodies.size() + i));
          replies[c].emplace_back(i, service.Handle(request_for(i)));
        }
      });
    }
    for (auto& t : clients) t.join();
    ReportServeLayers(before, ServeCounters::Now(), report);
    size_t dedupes = 0;
    for (const auto& client : replies) {
      for (const auto& [i, response] : client) {
        const bool dedupe = i % 10 == 9;
        dedupes += dedupe;
        account(response.status, response.body, dedupe, i % bodies.size());
      }
    }
    report->Add("serve.dedupe_share",
                static_cast<double>(dedupes) / kServeLoadRequests, "share");
  }
  service.Shutdown();
  report->Add("serve.json_parse_us", Median(parse_us), "us");
  report->Add("serve.handle_match_us", Median(handle_us), "us");
  report->Add("util.http_overhead_us", Median(socket_us) - Median(handle_us),
              "us");

  std::vector<core::PairSample> as_served;
  for (size_t i = 0; i < bodies.size(); ++i) {
    data::LabeledPair pair;
    pair.left = TextRecord(pairs[i].left.Description());
    pair.right = TextRecord(pairs[i].right.Description());
    as_served.push_back(core::EncodePair(matcher.encoded, pair,
                                         matcher.model->input_style()));
  }
  const std::vector<double> reference =
      SerialReferenceScores(*matcher.model, as_served);
  if (opt.corrupt_score && !served.empty()) {
    served[0].second = std::nextafter(served[0].second, 2.0);
  }
  bool equal = !served.empty();
  for (const auto& [i, score] : served) {
    equal = equal && std::memcmp(&score, &reference[i], sizeof(double)) == 0;
  }
  std::printf("  serving probe: %zu of %zu /match requests answered 200\n",
              served.size(), match_requests);
  ledger->Check(equal,
                "every 200 /match score equals offline MatchProbability of "
                "its pair");
}

}  // namespace

void RunLayerProbes(Matcher& matcher,
                    const std::vector<core::PairSample>& samples,
                    const std::vector<data::LabeledPair>& pairs,
                    const Options& opt, Ledger* ledger, Report* report) {
  ScopedSpan probes_span("probes");
  const core::EmModel& model = *matcher.model;
  const auto* emba_model =
      dynamic_cast<const core::TransformerEmModel*>(matcher.model.get());
  EMBA_CHECK_MSG(emba_model != nullptr, "the matcher is a TransformerEmModel");
  const nn::TransformerEncoder& encoder = emba_model->encoder();
  const nn::TransformerConfig& config = encoder.config();
  const double mean_tokens = MeanPairTokens(samples);
  report->Add("text.mean_pair_tokens", mean_tokens, "count");

  // Batched scoring at 1 and 4 threads over (up to) 2000 workload pairs.
  const std::vector<core::PairSample> batch(
      samples.begin(),
      samples.begin() + static_cast<long>(std::min<size_t>(samples.size(),
                                                           2000)));
  {
    SetGlobalThreads(1);
    double one = 0.0, four = 0.0;
    {
      ScopedSpan span("core.BatchMatchProbabilities.1t");
      one = BatchRate(model, batch);
    }
    SetGlobalThreads(kBenchThreads);
    {
      ScopedSpan span("core.BatchMatchProbabilities.4t");
      four = BatchRate(model, batch);
    }
    report->Add("core.batch_1t_pairs_per_s", one, "1/s");
    report->Add("core.batch_4t_pairs_per_s", four, "1/s");
    report->Add("core.batch_scaling", four / one, "ratio");
  }
  {
    metrics::Counter& calls = metrics::GetCounter("inference.int8_gemm_calls");
    const uint64_t before = calls.Value();
    int8::SetRuntimeMode(int8::Mode::kOn);
    core::BatchMatchProbabilities(model, batch);
    int8::SetRuntimeMode(int8::Mode::kOff);
    report->Add("tensor.int8_gemm_calls_per_pair",
                static_cast<double>(calls.Value() - before) /
                    static_cast<double>(batch.size()),
                "count");
  }

  // Everything below is serial: one thread, as each pair runs inside the
  // pool's sample-parallel scoring.
  SetGlobalThreads(1);
  GemmProbes(static_cast<int64_t>(std::lround(mean_tokens)), config.dim,
             report);

  Rng rng(13);
  nn::Embedding token(config.vocab_size, config.dim, &rng);
  nn::Embedding position(config.max_position, config.dim, &rng);
  nn::Embedding segment(config.num_segments, config.dim, &rng);
  nn::MultiHeadSelfAttention attention(config.dim, config.num_heads,
                                       config.dropout, &rng);
  nn::Linear ffn1(config.dim, config.ffn_dim, &rng);
  nn::Linear ffn2(config.ffn_dim, config.dim, &rng);
  nn::LayerNorm norm(config.dim);
  attention.SetTraining(false);
  const int64_t layers = config.num_layers;

  // One interleaved loop: every stage of a pair is timed back to back, so
  // the split is not skewed by the host's speed drifting between loops.
  // Sub-stages run standalone modules of the deployed shapes on the pair's
  // token embeddings; the encoder, AoA and forward run the matcher itself.
  double embedding_s = 0, attention_s = 0, ffn_s = 0, layernorm_s = 0,
         encoder_s = 0, aoa_s = 0, forward_s = 0;
  const size_t n_probe = std::min(samples.size(), kProbePairs);
  {
    ScopedSpan span("probes.forward_split");
    ag::InferenceModeGuard inference;
    ActivationArena::Scope arena;
    for (int round = 0; round < kProbeRounds; ++round) {
      for (size_t i = 0; i < n_probe; ++i) {
        const core::PairSample& s = samples[i];
        std::vector<int> positions(s.enc.token_ids.size());
        for (size_t p = 0; p < positions.size(); ++p) {
          positions[p] = static_cast<int>(p);
        }
        Clock::time_point t = Clock::now();
        auto lap = [&t](double* total) {
          const Clock::time_point now = Clock::now();
          *total += std::chrono::duration<double>(now - t).count();
          t = now;
        };
        double untimed = 0;
        token.Forward(s.enc.token_ids);
        position.Forward(positions);
        segment.Forward(s.enc.segment_ids);
        lap(&embedding_s);
        ag::Var x = token.Forward(s.enc.token_ids);
        lap(&untimed);
        attention.Forward(x);
        lap(&attention_s);
        ffn2.Forward(ag::Gelu(ffn1.Forward(x)));
        lap(&ffn_s);
        norm.Forward(x);
        lap(&layernorm_s);
        ag::Var hidden = encoder.Forward(s.enc.token_ids, s.enc.segment_ids);
        lap(&encoder_s);
        int64_t b1, e1, b2, e2;
        EntitySpan(s.enc, true, &b1, &e1);
        EntitySpan(s.enc, false, &b2, &e2);
        ag::Var t1 = ag::RowSlice(hidden, b1, e1);
        ag::Var t2 = ag::RowSlice(hidden, b2, e2);
        lap(&untimed);
        core::AttentionOverAttention(t1, t2);
        lap(&aoa_s);
        model.Forward(s);
        lap(&forward_s);
        x = ag::Var();
        hidden = t1 = t2 = ag::Var();
        ActivationArena::Reset();
      }
    }
  }
  const double per_pair = 1e6 / static_cast<double>(n_probe * kProbeRounds);
  const double embedding_us = embedding_s * per_pair;
  const double attention_us = layers * attention_s * per_pair;
  const double ffn_us = layers * ffn_s * per_pair;
  const double layernorm_us = (1 + 2 * layers) * layernorm_s * per_pair;
  const double encoder_us = encoder_s * per_pair;
  const double aoa_us = aoa_s * per_pair;
  const double forward_us = forward_s * per_pair;
  report->Add("nn.embedding_us", embedding_us, "us");
  report->Add("nn.self_attention_us", attention_us, "us");
  report->Add("nn.ffn_us", ffn_us, "us");
  report->Add("nn.layernorm_us", layernorm_us, "us");
  report->Add("nn.encoder_us", encoder_us, "us");
  const double parts = embedding_us + attention_us + ffn_us + layernorm_us;
  report->Add("nn.encoder_coverage", parts / encoder_us, "share");
  std::printf("  encoder split per pair (serial, %.1f tokens): embedding "
              "%.1f + attention %.1f + ffn %.1f + layernorm %.1f = %.1f us "
              "of %.1f us (%.1f%% covered; residual adds and dropout are "
              "the rest)\n",
              mean_tokens, embedding_us, attention_us, ffn_us, layernorm_us,
              parts, encoder_us, 100.0 * parts / encoder_us);
  report->Add("core.forward_us", forward_us, "us");
  report->Add("core.aoa_us", aoa_us, "us");
  report->Add("core.heads_us", forward_us - encoder_us - aoa_us, "us");

  // Grad mode: a fresh model of the same shape, as the trainer runs it.
  Rng grad_rng(17);
  auto fresh = core::CreateModel(
      "emba", BenchBudget(), matcher.encoded.wordpiece->vocab().size(),
      matcher.encoded.num_id_classes, &grad_rng);
  EMBA_CHECK(fresh.ok());
  core::EmModel& train_model = **fresh;
  const auto& train_encoder =
      dynamic_cast<const core::TransformerEmModel&>(train_model).encoder();
  nn::Adam adam(train_model.Parameters(), 1e-3f);
  const float aux = 1.0f / std::max(1.0f, std::log(static_cast<float>(
                                              matcher.encoded.num_id_classes)));
  const size_t n = std::min(samples.size(), kProbePairs);
  double grad_forward_s = 0, backward_s = 0, step_s = 0;
  {
    ScopedSpan span("autograd.train_step");
    for (size_t i = 0; i < n; ++i) {
      const core::PairSample& s = samples[i];
      Clock::time_point t = Clock::now();
      train_encoder.Forward(s.enc.token_ids, s.enc.segment_ids);
      grad_forward_s += SecondsSince(t);
      core::ModelOutput out = train_model.Forward(s);
      std::vector<ag::Var> terms = {
          ag::BinaryCrossEntropyFromLogits(out.em_logits, s.match ? 1 : 0)};
      for (auto [logits, id] : {std::make_pair(out.id1_logits, s.id1),
                                std::make_pair(out.id2_logits, s.id2)}) {
        if (id >= 0 && id < matcher.encoded.num_id_classes) {
          terms.push_back(
              ag::Scale(ag::CrossEntropyFromLogits(logits, id), aux));
        }
      }
      ag::Var loss = ag::AddN(terms);
      t = Clock::now();
      loss.Backward();
      backward_s += SecondsSince(t);
      t = Clock::now();
      adam.Step();
      step_s += SecondsSince(t);
      adam.ZeroGrad();
    }
  }
  report->Add("nn.encoder_grad_us", grad_forward_s * 1e6 / n, "us");
  report->Add("autograd.backward_us", backward_s * 1e6 / n, "us");
  report->Add("nn.optimizer_step_us", step_s * 1e6 / n, "us");
  SetGlobalThreads(kBenchThreads);

  ServeHandlerProbes(matcher, pairs, opt, ledger, report);
}

}  // namespace perfbench
