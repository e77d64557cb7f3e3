// emba_cli — command-line entity matching.
//
//   emba_cli [--threads N] generate <dataset> <out_prefix>
//   emba_cli [--threads N] train <prefix> <model_name> <out.bin>
//            [--checkpoint-every N] [--resume]
//   emba_cli [--threads N] evaluate <prefix> <model_name> <in.bin>
//   emba_cli [--threads N] predict <prefix> <model_name> <in.bin> <d1> <d2>
//   emba_cli [--threads N] explain <prefix> <model_name> <in.bin> <d1> <d2>
//   emba_cli [--threads N] serve <prefix> <model_name> <in.bin>
//            [--port N] [--batch-max N] [--batch-deadline-us N]
//            [--queue-max N] [--http-workers N] [--threshold P] [--top-k N]
//
// `serve` runs the online matching service (DESIGN.md §12): POST /match and
// POST /dedupe score through a cross-request dynamic batcher; the
// observability endpoints (/metrics, /healthz, ...) ride on the same port.
// SIGTERM or Ctrl-C drains gracefully: in-flight requests finish, then the
// process exits.
//
// Numeric flag values must parse in full and fall inside the flag's range
// (util/env.h parsers); anything else exits 1 with an error naming the flag.
//
// <prefix> refers to CSVs written by `generate` (prefix_train.csv, ...).
// The tokenizer is retrained from prefix_train.csv on every invocation so
// the vocabulary is reproducible from the data alone.
//
// --threads N sizes the worker pool used for batched evaluation scoring and
// the parallel tensor kernels (1-1024); it overrides EMBA_NUM_THREADS, which
// in turn overrides the hardware_concurrency default. --threads 1
// reproduces the single-threaded behaviour bit for bit.
//
// --checkpoint-every N writes a crash-safe training checkpoint to
// <out.bin>.ckpt every N epochs (and at the final epoch); --resume picks an
// existing <out.bin>.ckpt up and continues the interrupted run on a
// bit-identical trajectory. --checkpoint-keep-last K rotates the versioned
// checkpoint siblings down to the newest K. All are valid only with `train`.
//
// --metrics-out <path> writes a JSON dump of every counter/gauge/histogram
// at exit; --trace-out <path> records scoped spans and writes Chrome
// trace-event JSON (open in chrome://tracing or https://ui.perfetto.dev) at
// exit. EMBA_METRICS_OUT / EMBA_TRACE_OUT are the env-var equivalents; the
// flags win when both are given.
//
// --serve-obs <port> starts the live observability server (/metrics in
// Prometheus format, /healthz, /tracez, /profilez, /trainz — see DESIGN.md
// §11). Env equivalent: EMBA_OBS_PORT.
//
// Training observability (DESIGN.md §11, src/train_obs): --train-events
// <path> streams a schema-versioned JSONL event log (per-step per-task
// losses, grad norms, evals, checkpoints); --nan-abort fail-fasts with exit
// code 120 on the first non-finite loss or gradient, naming the offender;
// --attn-stats samples attention-row entropy/row-max histograms (costly —
// off by default); --max-epochs N overrides the training epoch budget (CI
// runs bound wall-clock with it). Env equivalents: EMBA_TRAIN_EVENTS,
// EMBA_NAN_ABORT, EMBA_ATTN_STATS.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <unordered_set>

#include "core/registry.h"
#include "core/trainer.h"
#include "tensor/int8.h"
#include "data/generator.h"
#include "explain/lime.h"
#include "serve/service.h"
#include "train_obs/train_obs.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/observability.h"
#include "util/request_trace.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace emba;

constexpr int kMaxLen = 48;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage (global flags: --threads N, --int8, "
               "--metrics-out <path>, --trace-out <path>,\n"
               "       --serve-obs <port>, --rtrace, --access-log <path>;\n"
               "       env: EMBA_NUM_THREADS, EMBA_INT8, EMBA_METRICS_OUT, "
               "EMBA_TRACE_OUT,\n"
               "       EMBA_OBS_PORT, EMBA_RTRACE, EMBA_ACCESS_LOG; a "
               "malformed or out-of-range number exits 1):\n"
               "  emba_cli generate <dataset> <out_prefix>\n"
               "  emba_cli train <prefix> <model> <out.bin> "
               "[--checkpoint-every N] [--checkpoint-keep-last K] [--resume]\n"
               "           [--train-events <path>] [--nan-abort] "
               "[--attn-stats] [--max-epochs N]\n"
               "  emba_cli evaluate <prefix> <model> <in.bin>\n"
               "  emba_cli predict <prefix> <model> <in.bin> <d1> <d2>\n"
               "  emba_cli explain <prefix> <model> <in.bin> <d1> <d2>\n"
               "  emba_cli serve <prefix> <model> <in.bin> [--port N] "
               "[--batch-max N]\n"
               "           [--batch-deadline-us N] [--queue-max N] "
               "[--http-workers N]\n"
               "           [--threshold P] [--top-k N]\n"
               "datasets: ");
  for (const auto& name : data::AllDatasetNames()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\nmodels: ");
  for (const auto& name : core::AllModelNames()) {
    std::fprintf(stderr, "%s ", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// Loads the three CSV splits under `prefix` into an EmDataset.
Result<data::EmDataset> LoadDataset(const std::string& prefix) {
  data::EmDataset dataset;
  dataset.name = prefix;
  dataset.size_tier = "csv";
  struct SplitSpec {
    const char* suffix;
    std::vector<data::LabeledPair>* dst;
  };
  SplitSpec specs[] = {{"_train.csv", &dataset.train},
                       {"_valid.csv", &dataset.valid},
                       {"_test.csv", &dataset.test}};
  int max_class = 0;
  for (const auto& spec : specs) {
    auto split = data::LoadSplitCsv(prefix + spec.suffix);
    if (!split.ok()) return split.status();
    *spec.dst = std::move(*split);
    for (const auto& pair : *spec.dst) {
      max_class = std::max({max_class, pair.left.id_class,
                            pair.right.id_class});
    }
  }
  dataset.num_id_classes = max_class + 1;
  return dataset;
}

struct LoadedModel {
  core::EncodedDataset encoded;
  // Owns the model's Rng: DropoutLayer et al. keep a raw pointer to it, so it
  // must outlive the model and keep a stable address when LoadedModel moves.
  std::unique_ptr<Rng> rng;
  std::unique_ptr<core::EmModel> model;
};

Result<LoadedModel> PrepareModel(const std::string& prefix,
                                 const std::string& model_name,
                                 const std::string& weights_path) {
  auto dataset = LoadDataset(prefix);
  if (!dataset.ok()) return dataset.status();
  LoadedModel loaded;
  core::EncodeOptions options;
  options.max_len = kMaxLen;
  options.style = core::ModelUsesDittoInput(model_name)
                      ? core::InputStyle::kDitto
                      : core::InputStyle::kPlain;
  loaded.encoded = core::EncodeDataset(*dataset, options);
  loaded.rng = std::make_unique<Rng>(4242);
  auto model = core::CreateModel(
      model_name, core::ModelBudget{.max_len = kMaxLen},
      loaded.encoded.wordpiece->vocab().size(),
      std::max(loaded.encoded.num_id_classes, 2), loaded.rng.get());
  if (!model.ok()) return model.status();
  loaded.model = std::move(*model);
  if (!weights_path.empty()) {
    Status status = loaded.model->LoadParameters(weights_path);
    if (!status.ok()) return status;
  }
  return loaded;
}

int CmdGenerate(const std::string& dataset_name, const std::string& prefix) {
  auto dataset = data::MakeByName(dataset_name, data::GeneratorOptions{});
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  struct SplitSpec {
    const char* suffix;
    const std::vector<data::LabeledPair>* src;
  };
  SplitSpec specs[] = {{"_train.csv", &dataset->train},
                       {"_valid.csv", &dataset->valid},
                       {"_test.csv", &dataset->test}};
  for (const auto& spec : specs) {
    Status status = data::SaveSplitCsv(*spec.src, prefix + spec.suffix);
    if (!status.ok()) return Fail(status.ToString());
  }
  std::printf("wrote %s_{train,valid,test}.csv  (%zu/%zu/%zu pairs, "
              "%d ID classes, LRID %.3f)\n",
              prefix.c_str(), dataset->train.size(), dataset->valid.size(),
              dataset->test.size(), dataset->num_id_classes,
              data::Lrid(*dataset));
  return 0;
}

int CmdTrain(const std::string& prefix, const std::string& model_name,
             const std::string& out_path, int checkpoint_every,
             int checkpoint_keep_last, bool resume, int max_epochs) {
  auto loaded = PrepareModel(prefix, model_name, "");
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  core::TrainConfig config;
  config.max_epochs = max_epochs > 0 ? max_epochs : 10;
  config.learning_rate = core::DefaultLearningRate(model_name);
  config.verbose = true;
  if (checkpoint_every > 0 || checkpoint_keep_last > 0 || resume) {
    config.checkpoint_path = out_path + ".ckpt";
    config.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
    config.checkpoint_keep_last = checkpoint_keep_last;
    config.resume = resume;
    // The model's dropout Rng must ride along in the checkpoint, or a
    // resumed run would draw a different dropout stream and diverge.
    config.dropout_rng = loaded->rng.get();
  }
  core::Trainer trainer(loaded->model.get(), &loaded->encoded, config);
  core::TrainResult result;
  Status train_status = trainer.Run(&result);
  if (!train_status.ok()) return Fail(train_status.ToString());
  std::printf("test F1=%.4f P=%.4f R=%.4f  Acc1=%.3f Acc2=%.3f  "
              "(%.0f train pairs/s)\n",
              result.test.em.f1, result.test.em.precision,
              result.test.em.recall, result.test.id1_accuracy,
              result.test.id2_accuracy, result.train_pairs_per_second);
  Status status = loaded->model->SaveParameters(out_path);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("saved weights to %s\n", out_path.c_str());
  return 0;
}

int CmdEvaluate(const std::string& prefix, const std::string& model_name,
                const std::string& weights) {
  auto loaded = PrepareModel(prefix, model_name, weights);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  core::Trainer trainer(loaded->model.get(), &loaded->encoded, {});
  core::EvalResult result = trainer.Evaluate(loaded->encoded.test);
  std::printf("test F1=%.4f P=%.4f R=%.4f acc=%.4f  Acc1=%.3f Acc2=%.3f "
              "idF1=%.3f\n",
              result.em.f1, result.em.precision, result.em.recall,
              result.em.accuracy, result.id1_accuracy, result.id2_accuracy,
              result.id_macro_f1);
  return 0;
}

data::LabeledPair PairFromDescriptions(const std::string& d1,
                                       const std::string& d2) {
  data::LabeledPair pair;
  pair.left.attributes.emplace_back("text", d1);
  pair.right.attributes.emplace_back("text", d2);
  return pair;
}

int CmdPredict(const std::string& prefix, const std::string& model_name,
               const std::string& weights, const std::string& d1,
               const std::string& d2) {
  auto loaded = PrepareModel(prefix, model_name, weights);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  data::LabeledPair pair = PairFromDescriptions(d1, d2);
  core::PairSample sample = core::EncodePair(loaded->encoded, pair,
                                             loaded->model->input_style());
  ag::NoGradGuard no_grad;
  loaded->model->SetTraining(false);
  core::ModelOutput out = loaded->model->Forward(sample);
  Tensor probs = SoftmaxRows(out.em_logits.value());
  std::printf("P(match) = %.4f  ->  %s\n", probs[1],
              probs[1] >= 0.5 ? "Match" : "Non-match");
  return 0;
}

int CmdExplain(const std::string& prefix, const std::string& model_name,
               const std::string& weights, const std::string& d1,
               const std::string& d2) {
  auto loaded = PrepareModel(prefix, model_name, weights);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  explain::LimeExplainer explainer(loaded->model.get(), &loaded->encoded);
  explain::LimeExplanation explanation =
      explainer.Explain(PairFromDescriptions(d1, d2));
  std::printf("%s", explain::LimeExplainer::Render(explanation).c_str());
  return 0;
}

struct ServeFlags {
  int64_t port = 8080;
  int64_t batch_max = 16;
  int64_t batch_deadline_us = 2000;
  int64_t queue_max = 256;
  int64_t http_workers = 4;
  double threshold = 0.5;
  int64_t top_k = 10;
};

// A numeric flag: its value must parse in full and fall in [lo, hi], or the
// CLI exits 1 naming the flag.
struct IntFlag {
  const char* name;
  int64_t lo;
  int64_t hi;
  int64_t* value;
  bool* seen;  ///< the subcommand-only group the flag belongs to, if any
};

int CmdServe(const std::string& prefix, const std::string& model_name,
             const std::string& weights, const ServeFlags& flags) {
  auto loaded = PrepareModel(prefix, model_name, weights);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto dataset = LoadDataset(prefix);
  if (!dataset.ok()) return Fail(dataset.status().ToString());

  // The /dedupe catalog: every distinct record description across all three
  // splits, so a query can be resolved against everything the service has.
  std::vector<data::Record> catalog;
  std::unordered_set<std::string> seen;
  for (const auto* split :
       {&dataset->train, &dataset->valid, &dataset->test}) {
    for (const auto& pair : *split) {
      for (const auto* record : {&pair.left, &pair.right}) {
        if (seen.insert(record->Description()).second) {
          catalog.push_back(*record);
        }
      }
    }
  }

  serve::ServeConfig config;
  config.batcher.max_batch = static_cast<size_t>(flags.batch_max);
  config.batcher.batch_deadline_us = flags.batch_deadline_us;
  config.batcher.max_queue = static_cast<size_t>(flags.queue_max);
  config.http_workers = static_cast<int>(flags.http_workers);
  config.match_threshold = flags.threshold;
  config.dedupe_top_k = static_cast<int>(flags.top_k);
  serve::MatchService service(loaded->model.get(), &loaded->encoded,
                              std::move(catalog), config);
  serve::InstallDrainSignalHandlers();
  Status status = service.Start(static_cast<int>(flags.port));
  if (!status.ok()) return Fail(status.ToString());
  std::printf("emba_serve on port %d, catalog %zu records "
              "(SIGTERM/Ctrl-C drains and exits)\n",
              service.port(), service.catalog_size());
  while (!serve::DrainRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service.Shutdown();
  std::printf("drained; bye\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  InitObservabilityFromEnv();
  train_obs::InitTrainObsFromEnv();
  // /buildz answers with the resolved SIMD/int8/arena state for every
  // subcommand, not just `serve` (which registers again, idempotently).
  serve::RegisterBuildzProviders();
  int kept = 1;
  int64_t threads = 0;    // 0: EMBA_NUM_THREADS, else the core count
  int64_t obs_port = -1;  // -1: no observability server from the flags
  int64_t checkpoint_every = 0;
  int64_t checkpoint_keep_last = 0;
  bool resume = false;
  int64_t max_epochs = 0;
  bool train_obs_flags_seen = false;
  ServeFlags serve_flags;
  bool serve_flags_seen = false;
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  const IntFlag int_flags[] = {
      {"--threads", 1, kMaxThreads, &threads, nullptr},
      {"--serve-obs", 0, 65535, &obs_port, nullptr},
      {"--checkpoint-every", 1, kIntMax, &checkpoint_every, nullptr},
      {"--checkpoint-keep-last", 1, kIntMax, &checkpoint_keep_last, nullptr},
      {"--max-epochs", 1, kIntMax, &max_epochs, &train_obs_flags_seen},
      {"--port", 0, 65535, &serve_flags.port, &serve_flags_seen},
      {"--batch-max", 1, kIntMax, &serve_flags.batch_max, &serve_flags_seen},
      {"--batch-deadline-us", 0, kIntMax, &serve_flags.batch_deadline_us,
       &serve_flags_seen},
      {"--queue-max", 1, kIntMax, &serve_flags.queue_max, &serve_flags_seen},
      {"--http-workers", 1, kMaxThreads, &serve_flags.http_workers,
       &serve_flags_seen},
      {"--top-k", 1, kIntMax, &serve_flags.top_k, &serve_flags_seen},
  };
  for (int a = 1; a < argc; ++a) {
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& flag : int_flags) {
      if (std::strcmp(argv[a], flag.name) == 0) int_flag = &flag;
    }
    if (int_flag != nullptr && a + 1 < argc) {
      const char* text = argv[++a];
      const auto value = env::ParseInt(text, int_flag->lo, int_flag->hi);
      if (!value) {
        return Fail(StrFormat(
            "%s requires an integer in [%lld, %lld], got '%s'", int_flag->name,
            static_cast<long long>(int_flag->lo),
            static_cast<long long>(int_flag->hi), text));
      }
      *int_flag->value = *value;
      if (int_flag->seen != nullptr) *int_flag->seen = true;
    } else if (std::strcmp(argv[a], "--threshold") == 0 && a + 1 < argc) {
      const char* text = argv[++a];
      const auto value = env::ParseDouble(text, 0.0, 1.0);
      if (!value) {
        return Fail(StrFormat(
            "--threshold requires a probability in [0, 1], got '%s'", text));
      }
      serve_flags.threshold = *value;
      serve_flags_seen = true;
    } else if (std::strcmp(argv[a], "--metrics-out") == 0 && a + 1 < argc) {
      EnableMetricsOutput(argv[++a]);
    } else if (std::strcmp(argv[a], "--trace-out") == 0 && a + 1 < argc) {
      EnableTraceOutput(argv[++a]);
    } else if (std::strcmp(argv[a], "--rtrace") == 0) {
      rtrace::SetEnabled(true);
    } else if (std::strcmp(argv[a], "--access-log") == 0 && a + 1 < argc) {
      Status status = rtrace::SetAccessLogPath(argv[++a]);
      if (!status.ok()) return Fail(status.ToString());
      rtrace::SetEnabled(true);  // a configured log implies tracing
    } else if (std::strcmp(argv[a], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[a], "--train-events") == 0 && a + 1 < argc) {
      train_obs::SetEventLogPath(argv[++a]);
      train_obs_flags_seen = true;
    } else if (std::strcmp(argv[a], "--nan-abort") == 0) {
      train_obs::SetNanAbort(true);
      train_obs_flags_seen = true;
    } else if (std::strcmp(argv[a], "--attn-stats") == 0) {
      train_obs::SetAttnStatsEnabled(true);
      train_obs_flags_seen = true;
    } else if (std::strcmp(argv[a], "--int8") == 0) {
      // Global flag: quantized inference GEMMs (DESIGN.md §14). Overrides
      // EMBA_INT8; training math is unaffected (grad mode never quantizes).
      int8::SetRuntimeMode(int8::Mode::kOn);
    } else {
      argv[kept++] = argv[a];
    }
  }
  argc = kept;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if ((checkpoint_every > 0 || checkpoint_keep_last > 0 || resume) &&
      command != "train") {
    return Fail(
        "--checkpoint-every/--checkpoint-keep-last/--resume are only valid "
        "with `train`");
  }
  if (train_obs_flags_seen && command != "train") {
    return Fail(
        "--train-events/--nan-abort/--attn-stats/--max-epochs are only "
        "valid with `train`");
  }
  if (serve_flags_seen && command != "serve") {
    return Fail(
        "--port/--batch-max/--batch-deadline-us/--queue-max/--http-workers/"
        "--threshold/--top-k are only valid with `serve`");
  }
  if (threads > 0) SetGlobalThreads(static_cast<int>(threads));
  if (obs_port >= 0) {
    Status status = StartObservabilityServer(static_cast<int>(obs_port));
    if (!status.ok()) return Fail(status.ToString());
  }
  if (command == "generate" && argc == 4) return CmdGenerate(argv[2], argv[3]);
  if (command == "train" && argc == 5) {
    return CmdTrain(argv[2], argv[3], argv[4],
                    static_cast<int>(checkpoint_every),
                    static_cast<int>(checkpoint_keep_last), resume,
                    static_cast<int>(max_epochs));
  }
  if (command == "evaluate" && argc == 5) {
    return CmdEvaluate(argv[2], argv[3], argv[4]);
  }
  if (command == "predict" && argc == 7) {
    return CmdPredict(argv[2], argv[3], argv[4], argv[5], argv[6]);
  }
  if (command == "explain" && argc == 7) {
    return CmdExplain(argv[2], argv[3], argv[4], argv[5], argv[6]);
  }
  if (command == "serve" && argc == 5) {
    return CmdServe(argv[2], argv[3], argv[4], serve_flags);
  }
  return Usage();
}
