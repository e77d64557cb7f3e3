// Table 7 reproduction: computational efficiency (pairs/second) of every
// model in training and inference on a fixed workload, a thread-sweep of
// batched inference (pairs scored across the global thread pool), and a
// timed per-pair inference forward pass of every model.
//
// Flags:
//   --threads N       parallel point of the thread sweep, in [1, 1024]
//                     (default: EMBA_NUM_THREADS or hardware_concurrency)
//   --json PATH       where the thread-sweep JSON is written
//                     (default: table7_threads.json)
//   --serve-obs PORT  serve the observability endpoints while running
// A malformed or out-of-range numeric value exits 1 and names the flag.
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/scoring.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "util/env.h"
#include "util/observability.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using namespace emba;

struct Throughput {
  double train = 0.0;
  double inference = 0.0;
};

const std::vector<std::string>& Models() {
  static const std::vector<std::string> kModels = {
      "jointbert", "emba",    "emba_ft", "emba_sb",
      "emba_db",   "bert",    "roberta", "ditto"};
  return kModels;
}

core::EncodedDataset* g_plain = nullptr;
core::EncodedDataset* g_ditto = nullptr;
BenchScale g_scale;

const core::EncodedDataset& DatasetFor(const std::string& model) {
  return core::ModelUsesDittoInput(model) ? *g_ditto : *g_plain;
}

std::unique_ptr<core::EmModel> MakeModel(const std::string& name) {
  // Models keep a raw pointer to their Rng (dropout), so each one gets an Rng
  // that outlives it; every model still seeds from a fresh Rng(99).
  static std::vector<std::unique_ptr<Rng>> rngs;
  rngs.push_back(std::make_unique<Rng>(99));
  const auto& dataset = DatasetFor(name);
  auto model = core::CreateModel(name, bench::BudgetFromScale(g_scale),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, rngs.back().get());
  EMBA_CHECK(model.ok());
  return std::move(*model);
}

// Microseconds per single-pair inference forward pass, in the serving
// configuration: pooled inference Vars plus the per-thread activation arena,
// reset between samples like the scoring loops do.
double MeasureForwardMicros(const std::string& model_name,
                            double min_seconds) {
  auto model = MakeModel(model_name);
  model->SetTraining(false);
  const auto& samples = DatasetFor(model_name).test;
  ag::InferenceModeGuard inference;
  ActivationArena::Scope arena;
  const auto forward = [&](size_t i) {
    {
      core::ModelOutput out = model->Forward(samples[i % samples.size()]);
      EMBA_CHECK(out.em_logits.value().size() == 2);
    }
    ActivationArena::Reset();
  };
  for (size_t i = 0; i < samples.size(); ++i) forward(i);  // warm-up
  Stopwatch timer;
  size_t pairs = 0;
  do {
    forward(pairs++);
  } while (timer.ElapsedSeconds() < min_seconds);
  return timer.ElapsedSeconds() * 1e6 / static_cast<double>(pairs);
}

Throughput MeasureThroughput(const std::string& model_name) {
  auto model = MakeModel(model_name);
  const auto& dataset = DatasetFor(model_name);
  core::TrainConfig config = bench::TrainConfigFromScale(g_scale, 6);
  config.max_epochs = 1;
  core::Trainer trainer(model.get(), &dataset, config);
  core::TrainResult result = trainer.Run();
  return {result.train_pairs_per_second, result.inference_pairs_per_second};
}

// Batched inference pairs/second under the current global thread count.
double MeasureBatchedInference(core::EmModel* model,
                               const std::vector<core::PairSample>& samples,
                               double min_seconds) {
  model->SetTraining(false);
  // Warm-up pass (thread pool spin-up, cache warm-up).
  core::BatchMatchProbabilities(*model, samples);
  Stopwatch timer;
  size_t scored = 0;
  do {
    scored += core::BatchMatchProbabilities(*model, samples).size();
  } while (timer.ElapsedSeconds() < min_seconds);
  return static_cast<double>(scored) / timer.ElapsedSeconds();
}

struct ThreadSweepPoint {
  int threads = 1;
  double pairs_per_second = 0.0;       ///< fp32 inference path
  double int8_pairs_per_second = 0.0;  ///< EMBA_INT8=on quantized path
};

// Measures batched "emba" inference at 1 thread and at `threads`, on both
// the fp32 and the int8 quantized path, prints the speedups, and records
// everything in a JSON file the harness (and CI) can scrape.
void RunThreadSweep(int threads, const std::string& json_path) {
  auto model = MakeModel("emba");
  const auto& dataset = DatasetFor("emba");
  const double min_seconds = g_scale.full ? 5.0 : 1.5;

  std::vector<ThreadSweepPoint> points;
  std::vector<int> axis = {1};
  if (threads > 1) axis.push_back(threads);
  for (int t : axis) {
    SetGlobalThreads(t);
    ThreadSweepPoint point;
    point.threads = t;
    int8::SetRuntimeMode(int8::Mode::kOff);
    point.pairs_per_second =
        MeasureBatchedInference(model.get(), dataset.test, min_seconds);
    int8::SetRuntimeMode(int8::Mode::kOn);
    point.int8_pairs_per_second =
        MeasureBatchedInference(model.get(), dataset.test, min_seconds);
    int8::ResetMode();
    points.push_back(point);
  }
  SetGlobalThreads(0);  // restore the default pool

  const double serial = points.front().pairs_per_second;
  const double parallel = points.back().pairs_per_second;
  const double speedup = serial > 0.0 ? parallel / serial : 0.0;
  const double int8_speedup =
      points.back().pairs_per_second > 0.0
          ? points.back().int8_pairs_per_second / points.back().pairs_per_second
          : 0.0;

  std::printf("\n=== batched inference thread sweep (model=emba) ===\n");
  bench::TablePrinter table(
      {"Threads", "Pairs/s", "Speedup", "Int8 pairs/s", "Int8/fp32"});
  for (const auto& point : points) {
    table.AddRow({std::to_string(point.threads),
                  FormatFixed(point.pairs_per_second, 1),
                  FormatFixed(serial > 0.0 ? point.pairs_per_second / serial
                                           : 0.0, 2),
                  FormatFixed(point.int8_pairs_per_second, 1),
                  FormatFixed(point.pairs_per_second > 0.0
                                  ? point.int8_pairs_per_second /
                                        point.pairs_per_second
                                  : 0.0, 2)});
  }
  table.Print();
  std::printf("speedup at %d threads vs serial: %.2fx "
              "(hardware_concurrency=%d); int8 vs fp32 at %d threads: %.2fx\n",
              points.back().threads, speedup, DefaultThreadCount(),
              points.back().threads, int8_speedup);

  FILE* json = std::fopen(json_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
    return;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"table7_throughput\",\n"
               "  \"dataset\": \"wdc_computers_medium\",\n"
               "  \"model\": \"emba\",\n"
               "  \"threads_axis\": [\n");
  for (size_t p = 0; p < points.size(); ++p) {
    std::fprintf(json,
                 "    {\"threads\": %d, \"inference_pairs_per_second\": "
                 "%.3f, \"int8_pairs_per_second\": %.3f}%s\n",
                 points[p].threads, points[p].pairs_per_second,
                 points[p].int8_pairs_per_second,
                 p + 1 < points.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"serial_pairs_per_second\": %.3f,\n"
               "  \"parallel_pairs_per_second\": %.3f,\n"
               "  \"parallel_threads\": %d,\n"
               "  \"speedup\": %.4f,\n"
               "  \"int8_pairs_per_second\": %.3f,\n"
               "  \"int8_speedup_vs_fp32\": %.4f\n"
               "}\n",
               serial, parallel, points.back().threads, speedup,
               points.back().int8_pairs_per_second, int8_speedup);
  std::fclose(json);
  std::printf("thread-sweep JSON written to %s\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // EMBA_METRICS_OUT / EMBA_TRACE_OUT give per-stage visibility into the
  // sweep (queue-wait, kernel mix); unset, the hot paths stay uninstrumented.
  InitObservabilityFromEnv();
  int sweep_threads = DefaultThreadCount();
  std::string json_path = "table7_threads.json";
  // Numeric flags parse in full and within bounds, else exit 1.
  const auto integer = [](const char* flag, const char* text, int64_t lo,
                          int64_t hi) -> std::optional<int64_t> {
    const auto value = env::ParseIntFlag(flag, text, lo, hi);
    if (value.ok()) return *value;
    std::fprintf(stderr, "error: %s\n", value.status().message().c_str());
    return std::nullopt;
  };
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      const auto value = integer("--threads", argv[++a], 1, 1024);
      if (!value) return 1;
      sweep_threads = static_cast<int>(*value);
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--serve-obs") == 0 && a + 1 < argc) {
      // Live scraping of a long sweep: curl :PORT/metrics mid-run.
      const auto port = integer("--serve-obs", argv[++a], 0, 65535);
      if (!port) return 1;
      emba::Status status =
          emba::StartObservabilityServer(static_cast<int>(*port));
      if (!status.ok()) {
        std::fprintf(stderr, "--serve-obs failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    }
  }

  g_scale = GetBenchScale();
  bench::DatasetCache cache(g_scale);
  // Fixed workload: the medium computers tier.
  core::EncodedDataset plain =
      cache.Get("wdc_computers_medium", core::InputStyle::kPlain);
  core::EncodedDataset ditto =
      cache.Get("wdc_computers_medium", core::InputStyle::kDitto);
  g_plain = &plain;
  g_ditto = &ditto;

  std::printf("=== Table 7: computational efficiency (pairs/second) ===\n");
  bench::TablePrinter table({"Model", "Training", "Inference"});
  double emba_ft_infer = 0.0, emba_infer = 0.0, emba_sb_infer = 0.0;
  for (const auto& model : Models()) {
    Throughput throughput = MeasureThroughput(model);
    if (model == "emba_ft") emba_ft_infer = throughput.inference;
    if (model == "emba") emba_infer = throughput.inference;
    if (model == "emba_sb") emba_sb_infer = throughput.inference;
    table.AddRow({model, FormatFixed(throughput.train, 1),
                  FormatFixed(throughput.inference, 1)});
    std::printf("[model done] %s\n", model.c_str());
  }
  std::printf("\n");
  table.Print();
  std::printf("\nShape check vs. paper Table 7: EMBA(FT) fastest "
              "(%.1f pairs/s inference), EMBA(SB) in between (%.1f), full "
              "EMBA slowest of the three (%.1f) — ordering FT > SB > EMBA "
              "should hold: %s.\n",
              emba_ft_infer, emba_sb_infer, emba_infer,
              (emba_ft_infer > emba_sb_infer && emba_sb_infer > emba_infer)
                  ? "yes" : "no");

  RunThreadSweep(sweep_threads, json_path);

  std::printf("\n=== per-pair inference forward pass ===\n");
  bench::TablePrinter forward_table({"Model", "us/pair"});
  for (const auto& model : Models()) {
    forward_table.AddRow(
        {model, FormatFixed(MeasureForwardMicros(model, g_scale.full ? 2.0
                                                                     : 0.5),
                            2)});
  }
  forward_table.Print();
  return 0;
}
