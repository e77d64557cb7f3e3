// serve_bench — open-loop load generator for the emba_serve matching
// service (DESIGN.md §12).
//
// Starts an in-process MatchService on an ephemeral port (tiny untrained
// model: serving latency does not depend on the weights), pre-generates a
// Poisson arrival schedule at the requested rate from a fixed seed, and has
// a pool of sender threads fire each /match request at its scheduled time.
// Latency is measured from the *scheduled* arrival, not the send, so a
// backed-up service cannot hide queueing delay by slowing the senders down
// (the coordinated-omission correction).
//
// Flags:
//   --duration S          seconds of offered load            (default 10)
//   --rps R               offered request rate               (default 200)
//   --p99-ms X            e2e p99 latency target; exceeding it fails
//                         the run                            (default 250)
//   --senders M           client threads                     (default 4)
//   --batch-max N         batcher max batch                  (default 16)
//   --batch-deadline-us N batcher deadline                   (default 2000)
//   --http-workers N      service handler threads            (default 4)
//   --int8                score through the quantized inference GEMM path
//                         (DESIGN.md §14); overrides EMBA_INT8
//   --rtrace              enable request-scoped tracing (util/request_trace)
//                         and print the per-stage p50/p99 table
//   --access-log <path>   JSON access log (implies --rtrace)
//   --dump-obs <dir>      after the run, write metrics.prom (the /metrics
//                         exposition, with exemplars) and rpcz.json (the
//                         /rpcz snapshot) into <dir> — CI
//                         scrapes these without a live listener
//
// A malformed or out-of-range numeric value exits 1 and names the flag.
//
// Exit status is nonzero when the run is unhealthy: zero completed
// requests, any 5xx response, or p99 above the target. 429s are reported
// but tolerated — an overloaded open-loop run is *supposed* to shed load.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "data/generator.h"
#include "serve/service.h"
#include "tensor/int8.h"
#include "util/env.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/request_trace.h"
#include "util/rng.h"

namespace {

using namespace emba;
using Clock = std::chrono::steady_clock;

struct Options {
  double duration_s = 10.0;
  double rps = 200.0;
  double p99_target_ms = 250.0;
  int senders = 4;
  size_t batch_max = 16;
  int64_t batch_deadline_us = 2000;
  int http_workers = 4;
  bool rtrace = false;
  std::string access_log;
  std::string dump_obs_dir;
};

// One blocking POST /match; returns the HTTP status (0 = transport error).
int PostMatch(int port, const std::string& body) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return 0;
  }
  const std::string request =
      "POST /match HTTP/1.1\r\nHost: bench\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return 0;
    }
    sent += static_cast<size_t>(n);
  }
  std::string head;
  char chunk[2048];
  ssize_t n;
  while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    if (head.size() < 64) head.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  if (head.rfind("HTTP/1.1 ", 0) != 0) return 0;
  return std::atoi(head.c_str() + std::strlen("HTTP/1.1 "));
}

double Percentile(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      std::min<double>(static_cast<double>(sorted_ms.size()) - 1.0,
                       p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int a = 1; a < argc; ++a) {
    auto next = [&](const char* flag) -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++a];
    };
    // Numeric values parse in full and within bounds; anything else exits
    // 1 naming the flag.
    auto or_exit = [](const auto& value) {
      if (!value.ok()) {
        std::fprintf(stderr, "error: %s\n", value.status().message().c_str());
        std::exit(1);
      }
      return *value;
    };
    auto number = [&](const char* flag, double lo, double hi) {
      return or_exit(env::ParseDoubleFlag(flag, next(flag), lo, hi));
    };
    auto integer = [&](const char* flag, int64_t lo, int64_t hi) {
      return or_exit(env::ParseIntFlag(flag, next(flag), lo, hi));
    };
    if (std::strcmp(argv[a], "--duration") == 0) {
      opt.duration_s = number("--duration", 1e-3, 86400.0);
    } else if (std::strcmp(argv[a], "--rps") == 0) {
      opt.rps = number("--rps", 1e-3, 1e6);
    } else if (std::strcmp(argv[a], "--p99-ms") == 0) {
      opt.p99_target_ms = number("--p99-ms", 1e-3, 1e6);
    } else if (std::strcmp(argv[a], "--senders") == 0) {
      opt.senders = static_cast<int>(integer("--senders", 1, 256));
    } else if (std::strcmp(argv[a], "--batch-max") == 0) {
      opt.batch_max = static_cast<size_t>(integer("--batch-max", 1, 4096));
    } else if (std::strcmp(argv[a], "--batch-deadline-us") == 0) {
      opt.batch_deadline_us = integer("--batch-deadline-us", 0, 60'000'000);
    } else if (std::strcmp(argv[a], "--http-workers") == 0) {
      opt.http_workers = static_cast<int>(integer("--http-workers", 1, 256));
    } else if (std::strcmp(argv[a], "--int8") == 0) {
      int8::SetRuntimeMode(int8::Mode::kOn);
    } else if (std::strcmp(argv[a], "--rtrace") == 0) {
      opt.rtrace = true;
    } else if (std::strcmp(argv[a], "--access-log") == 0) {
      opt.access_log = next("--access-log");
      opt.rtrace = true;
    } else if (std::strcmp(argv[a], "--dump-obs") == 0) {
      opt.dump_obs_dir = next("--dump-obs");
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", argv[a]);
      return 2;
    }
  }
  if (opt.rtrace) rtrace::SetEnabled(true);
  if (!opt.access_log.empty()) {
    Status log_status = rtrace::SetAccessLogPath(opt.access_log);
    if (!log_status.ok()) {
      std::fprintf(stderr, "error: %s\n", log_status.ToString().c_str());
      return 2;
    }
  }

  // The service under test: tiny deterministic model, same recipe as the
  // tier-1 serving tests.
  data::GeneratorOptions gen;
  gen.seed = 33;
  gen.size_factor = 0.3;
  data::EmDataset dataset = data::MakeWdc(data::WdcCategory::kComputers,
                                          data::WdcSize::kSmall, gen);
  core::EncodeOptions encode_options;
  encode_options.max_len = 24;
  encode_options.wordpiece_vocab = 400;
  core::EncodedDataset encoded = core::EncodeDataset(dataset, encode_options);
  Rng model_rng(5);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model =
      core::CreateModel("emba", budget, encoded.wordpiece->vocab().size(),
                        encoded.num_id_classes, &model_rng);
  EMBA_CHECK(model.ok());

  std::vector<data::Record> catalog;
  for (const auto& pair : dataset.test) {
    catalog.push_back(pair.left);
    if (catalog.size() >= 32) break;
  }
  serve::ServeConfig config;
  config.batcher.max_batch = opt.batch_max;
  config.batcher.batch_deadline_us = opt.batch_deadline_us;
  config.http_workers = opt.http_workers;
  serve::MatchService service(model->get(), &encoded, std::move(catalog),
                              config);
  Status status = service.Start(0);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const int port = service.port();

  // Request bodies cycled from real dataset texts.
  std::vector<std::string> bodies;
  for (size_t i = 0; i + 1 < dataset.test.size() && bodies.size() < 64; ++i) {
    bodies.push_back(
        "{\"left\": \"" +
        json::Escape(dataset.test[i].left.Description()) +
        "\", \"right\": \"" +
        json::Escape(dataset.test[i + 1].right.Description()) + "\"}");
  }
  EMBA_CHECK(!bodies.empty());

  // Open-loop Poisson schedule: exponential inter-arrivals at `rps`, fixed
  // seed so a run is reproducible end to end.
  Rng arrival_rng(2024);
  std::vector<double> schedule_s;
  for (double t = 0.0; t < opt.duration_s;) {
    t += -std::log(1.0 - arrival_rng.Uniform(0.0, 1.0)) / opt.rps;
    if (t < opt.duration_s) schedule_s.push_back(t);
  }
  const size_t offered = schedule_s.size();

  std::vector<double> latencies_ms(offered, -1.0);
  std::vector<int> statuses(offered, 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> senders;
  for (int s = 0; s < opt.senders; ++s) {
    senders.emplace_back([&, s] {
      // Round-robin partition keeps each thread's schedule monotone.
      for (size_t i = static_cast<size_t>(s); i < offered;
           i += static_cast<size_t>(opt.senders)) {
        const Clock::time_point scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule_s[i]));
        std::this_thread::sleep_until(scheduled);
        statuses[i] = PostMatch(port, bodies[i % bodies.size()]);
        latencies_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - scheduled)
                .count();
      }
    });
  }
  for (auto& t : senders) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  service.Shutdown();

  size_t ok = 0, rejected = 0, server_errors = 0, transport_errors = 0;
  std::vector<double> ok_latencies;
  for (size_t i = 0; i < offered; ++i) {
    if (statuses[i] == 200) {
      ++ok;
      ok_latencies.push_back(latencies_ms[i]);
    } else if (statuses[i] == 429 || statuses[i] == 503) {
      ++rejected;
    } else if (statuses[i] >= 500) {
      ++server_errors;
    } else {
      ++transport_errors;
    }
  }
  std::sort(ok_latencies.begin(), ok_latencies.end());
  const double p50 = Percentile(ok_latencies, 0.50);
  const double p95 = Percentile(ok_latencies, 0.95);
  const double p99 = Percentile(ok_latencies, 0.99);
  const double achieved_rps = static_cast<double>(ok) / elapsed_s;

  std::printf("serve_bench: open-loop Poisson, offered %.0f rps for %.1fs "
              "(%zu requests, %d senders)\n",
              opt.rps, opt.duration_s, offered, opt.senders);
  std::printf("  service: batch_max=%zu deadline_us=%lld http_workers=%d\n",
              opt.batch_max,
              static_cast<long long>(opt.batch_deadline_us),
              opt.http_workers);
  std::printf("  completed 200s: %zu (%.1f rps sustained)\n", ok,
              achieved_rps);
  std::printf("  shed (429/503): %zu   5xx: %zu   transport errors: %zu\n",
              rejected, server_errors, transport_errors);
  std::printf("  e2e latency from scheduled arrival: p50=%.2fms p95=%.2fms "
              "p99=%.2fms (target p99 <= %.0fms)\n",
              p50, p95, p99, opt.p99_target_ms);
  std::printf("  batches formed: %llu (full fires %llu, deadline fires %llu, "
              "drain fires %llu)\n",
              static_cast<unsigned long long>(
                  metrics::GetCounter("serve.batches_total").Value()),
              static_cast<unsigned long long>(
                  metrics::GetCounter("serve.batch_full_fires").Value()),
              static_cast<unsigned long long>(
                  metrics::GetCounter("serve.batch_deadline_fires").Value()),
              static_cast<unsigned long long>(
                  metrics::GetCounter("serve.batch_drain_fires").Value()));
  if (opt.rtrace) {
    // Server-side stage attribution next to the client-side e2e: where the
    // time went inside the process, p50/p99 per stage.
    std::printf("  server stage breakdown (serve.stage.*_ms):\n");
    std::printf("    %-12s %10s %10s %10s\n", "stage", "count", "p50 ms",
                "p99 ms");
    for (int s = 0; s < rtrace::kStageCount; ++s) {
      const char* name = rtrace::StageName(static_cast<rtrace::Stage>(s));
      metrics::Histogram& h = metrics::GetHistogram(
          std::string("serve.stage.") + name + "_ms");
      const metrics::Histogram::Snapshot snap = h.GetSnapshot();
      std::printf("    %-12s %10llu %10.3f %10.3f\n", name,
                  static_cast<unsigned long long>(snap.count),
                  metrics::Histogram::PercentileFromSnapshot(snap, 0.50),
                  metrics::Histogram::PercentileFromSnapshot(snap, 0.99));
    }
  }
  if (!opt.dump_obs_dir.empty()) {
    // The observability surface as files: the same bytes a live /metrics
    // and /rpcz scrape would return. CI greps these for
    // exemplars and per-stage counts without managing a listener.
    http::HttpRequest scrape;
    scrape.method = "GET";
    scrape.path = "/metrics";
    std::ofstream prom(opt.dump_obs_dir + "/metrics.prom");
    prom << HandleObservabilityRequest(scrape).body;
    scrape.path = "/rpcz";
    std::ofstream rpcz(opt.dump_obs_dir + "/rpcz.json");
    rpcz << HandleObservabilityRequest(scrape).body;
    if (!prom || !rpcz) {
      std::fprintf(stderr, "error: --dump-obs write to %s failed\n",
                   opt.dump_obs_dir.c_str());
      return 1;
    }
    std::printf("  wrote %s/metrics.prom and %s/rpcz.json\n",
                opt.dump_obs_dir.c_str(), opt.dump_obs_dir.c_str());
  }
  if (!opt.access_log.empty()) {
    Status flush_status = rtrace::FlushAccessLog();
    if (!flush_status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   flush_status.ToString().c_str());
      return 1;
    }
  }

  bool healthy = true;
  if (ok == 0) {
    std::printf("FAIL: zero completed requests\n");
    healthy = false;
  }
  if (server_errors > 0) {
    std::printf("FAIL: %zu server-side 5xx responses\n", server_errors);
    healthy = false;
  }
  if (transport_errors > 0) {
    std::printf("FAIL: %zu transport errors\n", transport_errors);
    healthy = false;
  }
  if (ok > 0 && p99 > opt.p99_target_ms) {
    std::printf("FAIL: p99 %.2fms exceeds target %.0fms\n", p99,
                opt.p99_target_ms);
    healthy = false;
  }
  if (healthy) std::printf("PASS\n");
  return healthy ? 0 : 1;
}
