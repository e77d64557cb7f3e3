// Table 7 reproduction: computational efficiency (pairs/second) of every
// model in training and inference on a fixed workload, plus google-benchmark
// microbenchmarks of the per-pair inference forward pass and a thread-sweep
// of batched inference (pairs scored across the global thread pool).
//
// Flags (consumed before google-benchmark's own):
//   --threads N   parallel point of the thread sweep (default:
//                 EMBA_NUM_THREADS or hardware_concurrency)
//   --json PATH   where the thread-sweep JSON is written
//                 (default: table7_threads.json)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "core/scoring.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
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

// google-benchmark microbenchmark: single-pair inference forward pass.
void BM_Inference(benchmark::State& state, const std::string& model_name) {
  auto model = MakeModel(model_name);
  model->SetTraining(false);
  const auto& dataset = DatasetFor(model_name);
  // The serving configuration: pooled inference Vars plus the per-thread
  // activation arena, reset between samples like the scoring loops do.
  ag::InferenceModeGuard inference;
  ActivationArena::Scope arena;
  size_t i = 0;
  for (auto _ : state) {
    const auto& sample = dataset.test[i % dataset.test.size()];
    {
      core::ModelOutput out = model->Forward(sample);
      benchmark::DoNotOptimize(out.em_logits.value().data());
    }
    ActivationArena::Reset();
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
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
    auto probs = core::BatchMatchProbabilities(*model, samples);
    benchmark::DoNotOptimize(probs.data());
    scored += probs.size();
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
  // Consume --threads / --json / --serve-obs before google-benchmark parses
  // the rest.
  int sweep_threads = DefaultThreadCount();
  std::string json_path = "table7_threads.json";
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--threads") == 0 && a + 1 < argc) {
      sweep_threads = std::max(1, std::atoi(argv[++a]));
    } else if (std::strcmp(argv[a], "--json") == 0 && a + 1 < argc) {
      json_path = argv[++a];
    } else if (std::strcmp(argv[a], "--serve-obs") == 0 && a + 1 < argc) {
      // Live scraping of a long sweep: curl :PORT/metrics mid-run.
      emba::Status status =
          emba::StartObservabilityServer(std::atoi(argv[++a]));
      if (!status.ok()) {
        std::fprintf(stderr, "--serve-obs failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;

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

  // google-benchmark microbenchmarks of the inference forward pass.
  std::printf("\n--- per-pair inference microbenchmarks ---\n");
  for (const auto& model : Models()) {
    benchmark::RegisterBenchmark(("BM_Inference/" + model).c_str(),
                                 BM_Inference, model);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
