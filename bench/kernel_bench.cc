// Kernel microbenchmark suite for the SIMD kernel layer (src/tensor/kernels.h).
//
// Measures GFLOP/s per kernel × shape in three configurations —
//   scalar        ForceBackend(kScalar), 1 thread
//   simd          ForceBackend(kAvx2), 1 thread (skipped when unavailable)
//   simd+threads  AVX2 + the PR-1 thread pool (matmul family only)
// — so the SIMD speedup and the thread-pool speedup can be read off the same
// table and their composition verified. Results go to stdout and to a JSON
// file (default kernel_bench.json) with per-entry speedup_vs_scalar.
//
// Flags:
//   --threads N   thread count for the simd+threads configuration
//                 (default: EMBA_NUM_THREADS or hardware_concurrency)
//   --json PATH   output path (default: kernel_bench.json)
// Honors EMBA_BENCH_SCALE=full for longer per-point measurement windows.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/bench_scale.h"
#include "util/env.h"
#include "util/observability.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace emba;

struct BenchResult {
  std::string kernel;
  std::string shape;
  std::string backend;  // "scalar", "simd", "simd+threads"
  int threads = 1;
  double seconds_per_call = 0.0;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

double g_min_seconds = 0.25;

// The result sink keeps the optimizer from deleting the benched call without
// paying a per-iteration barrier.
volatile float g_sink = 0.0f;

std::string ShapeName(int64_t m, int64_t k, int64_t n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

// One (kernel, shape) point across all requested configurations.
//
// All configurations are timed in *interleaved* batches over one shared
// measurement window, and each reports the *minimum* observed seconds per
// call. On a shared machine interference only ever adds time, so the
// fastest batch is the closest observation of a configuration's true cost —
// and interleaving exposes every configuration to the same noise
// environment, which keeps the speedup ratios stable run to run.
void BenchPoint(const std::string& kernel, const std::string& shape,
                double flops_per_call, const std::function<void()>& fn,
                bool threaded_config, int threads, bool have_avx2,
                std::vector<BenchResult>* out) {
  struct Config {
    const char* name;
    kernels::Backend backend;
    int threads;
  };
  std::vector<Config> configs = {{"scalar", kernels::Backend::kScalar, 1}};
  if (have_avx2) {
    configs.push_back({"simd", kernels::Backend::kAvx2, 1});
    if (threaded_config && threads > 1) {
      configs.push_back({"simd+threads", kernels::Backend::kAvx2, threads});
    }
  }
  const size_t nc = configs.size();

  // Warm up each configuration (page-in, branch predictors, thread-pool
  // spin-up) and calibrate a batch size spanning roughly 1/16 of the window,
  // so the window holds several batches per configuration for the min.
  std::vector<int64_t> batch(nc, 1);
  std::vector<double> best(nc, 1e300);
  for (size_t ci = 0; ci < nc; ++ci) {
    kernels::ForceBackend(configs[ci].backend);
    SetGlobalThreads(configs[ci].threads);
    fn();
    Stopwatch cal;
    int64_t iters = 0;
    do {
      fn();
      ++iters;
    } while (cal.ElapsedSeconds() < g_min_seconds / 16.0);
    batch[ci] = iters;
    best[ci] = cal.ElapsedSeconds() / static_cast<double>(iters);
  }

  Stopwatch total;
  while (total.ElapsedSeconds() < g_min_seconds) {
    for (size_t ci = 0; ci < nc; ++ci) {
      kernels::ForceBackend(configs[ci].backend);
      SetGlobalThreads(configs[ci].threads);
      Stopwatch t;
      for (int64_t i = 0; i < batch[ci]; ++i) fn();
      best[ci] = std::min(
          best[ci], t.ElapsedSeconds() / static_cast<double>(batch[ci]));
    }
  }

  for (size_t ci = 0; ci < nc; ++ci) {
    BenchResult r;
    r.kernel = kernel;
    r.shape = shape;
    r.backend = configs[ci].name;
    r.threads = configs[ci].threads;
    r.seconds_per_call = best[ci];
    r.gflops = flops_per_call / r.seconds_per_call * 1e-9;
    r.speedup_vs_scalar = best[0] / r.seconds_per_call;
    out->push_back(r);
  }
  kernels::ResetBackend();
  SetGlobalThreads(1);
}

void WriteJson(const std::string& path, const std::vector<BenchResult>& results,
               bool have_avx2, int threads) {
  FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"kernel_bench\",\n"
               "  \"avx2_available\": %s,\n"
               "  \"threads\": %d,\n"
               "  \"results\": [\n",
               have_avx2 ? "true" : "false", threads);
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(json,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"backend\": "
                 "\"%s\", \"threads\": %d, \"seconds_per_call\": %.9g, "
                 "\"gflops\": %.4f, \"speedup_vs_scalar\": %.4f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.backend.c_str(),
                 r.threads, r.seconds_per_call, r.gflops, r.speedup_vs_scalar,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("kernel-bench JSON written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  InitObservabilityFromEnv();
  int threads = DefaultThreadCount();
  std::string json_path = "kernel_bench.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      const auto value = env::ParseIntFlag("--threads", argv[++a], 1, 1024);
      if (!value.ok()) {
        std::fprintf(stderr, "error: %s\n", value.status().message().c_str());
        return 1;
      }
      threads = static_cast<int>(*value);
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    }
  }
  const BenchScale scale = GetBenchScale();
  g_min_seconds = scale.full ? 1.0 : 0.25;

  const bool have_avx2 =
      kernels::Avx2KernelsOrNull() != nullptr && kernels::CpuSupportsAvx2();
  std::printf("=== kernel microbenchmarks (avx2 %s, threads=%d) ===\n",
              have_avx2 ? "available" : "UNAVAILABLE — scalar only", threads);

  Rng rng(1234);
  std::vector<BenchResult> results;

  // ---- matmul family ----
  // BERT-small-shaped (seq×hidden · hidden×hidden), a small AoA-like shape
  // and a square mid-size; FLOPs = 2·m·k·n.
  const int64_t shapes[][3] = {{128, 256, 256}, {48, 48, 48}, {128, 128, 512}};
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    Tensor a = Tensor::RandomNormal({m, k}, &rng);
    Tensor b = Tensor::RandomNormal({k, n}, &rng);
    Tensor bt = Tensor::RandomNormal({n, k}, &rng);
    Tensor at = Tensor::RandomNormal({k, m}, &rng);
    const double flops = 2.0 * static_cast<double>(m) * k * n;
    BenchPoint("MatMul", ShapeName(m, k, n), flops,
               [&] { g_sink = MatMul(a, b)[0]; }, true, threads, have_avx2,
               &results);
    BenchPoint("MatMulTransposedB", ShapeName(m, k, n), flops,
               [&] { g_sink = MatMulTransposedB(a, bt)[0]; }, true, threads,
               have_avx2, &results);
    BenchPoint("MatMulTransposedA", ShapeName(m, k, n), flops,
               [&] { g_sink = MatMulTransposedA(at, b)[0]; }, false, threads,
               have_avx2, &results);
  }

  // ---- int8 quantized inference GEMM (DESIGN.md §14) ----
  // Same shapes and FLOP accounting as MatMul so the GFLOP/s columns are
  // directly comparable; the timing includes per-row activation
  // quantization (the weight cache is warm after the first iteration,
  // exactly like steady-state serving).
  for (const auto& s : shapes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    Tensor a = Tensor::RandomNormal({m, k}, &rng);
    Tensor b = Tensor::RandomNormal({k, n}, &rng);
    int8::LinearWeightCache cache;
    const double flops = 2.0 * static_cast<double>(m) * k * n;
    BenchPoint("Int8MatMul", ShapeName(m, k, n), flops,
               [&] { g_sink = int8::Int8MatMul(a, b, &cache)[0]; }, false,
               threads, have_avx2, &results);
  }

  // ---- row-wise and elementwise kernels on a seq×hidden activation ----
  {
    const int64_t rows = 128, cols = 256;
    const double elems = static_cast<double>(rows) * cols;
    Tensor x = Tensor::RandomNormal({rows, cols}, &rng);
    Tensor y = Tensor::RandomNormal({rows, cols}, &rng);
    const std::string shape =
        std::to_string(rows) + "x" + std::to_string(cols);
    // Per-element FLOP estimates: softmax ≈ max+exp+sum+scale ≈ 4;
    // transcendentals are counted as 1 "op" per element (the number is only
    // a scale factor — compare GFLOP/s within one kernel, not across).
    BenchPoint("SoftmaxRows", shape, 4.0 * elems,
               [&] { g_sink = SoftmaxRows(x)[0]; }, false, threads, have_avx2,
               &results);
    BenchPoint("Gelu", shape, elems, [&] { g_sink = Gelu(x)[0]; }, false,
               threads, have_avx2, &results);
    BenchPoint("Tanh", shape, elems, [&] { g_sink = Tanh(x)[0]; }, false,
               threads, have_avx2, &results);
    BenchPoint("Sigmoid", shape, elems, [&] { g_sink = Sigmoid(x)[0]; }, false,
               threads, have_avx2, &results);
    BenchPoint("SumAll", shape, elems, [&] { g_sink = x.SumAll(); }, false,
               threads, have_avx2, &results);
    BenchPoint("Norm", shape, 2.0 * elems, [&] { g_sink = x.Norm(); }, false,
               threads, have_avx2, &results);
    BenchPoint("AddInPlace", shape, elems,
               [&] {
                 Tensor t = x;
                 t.AddInPlace(y);
                 g_sink = t[0];
               },
               false, threads, have_avx2, &results);
    BenchPoint("Axpy", shape, 2.0 * elems,
               [&] {
                 Tensor t = x;
                 t.Axpy(0.5f, y);
                 g_sink = t[0];
               },
               false, threads, have_avx2, &results);
  }

  bench::TablePrinter table(
      {"Kernel", "Shape", "Backend", "Threads", "GFLOP/s", "Speedup"});
  for (const auto& r : results) {
    table.AddRow({r.kernel, r.shape, r.backend, std::to_string(r.threads),
                  FormatFixed(r.gflops, 3), FormatFixed(r.speedup_vs_scalar, 2)});
  }
  std::printf("\n");
  table.Print();

  WriteJson(json_path, results, have_avx2, threads);
  return 0;
}
