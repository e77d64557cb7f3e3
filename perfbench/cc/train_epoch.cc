// train_epoch: core::Trainer::Run of a fresh EMBA model for a fixed number
// of epochs on generated computers pairs; early stopping cannot fire.
//
// Why: the same nn layers in grad mode, plus autograd backward and the
// optimizer on heap storage, with no arena and no int8 — the "writes beside
// reads" workload. An inference-only change must leave it unmoved; a
// shared-kernel change must not slow it.
#include <cmath>
#include <cstdio>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace emba;

namespace {

constexpr int kEpochs = 1;
constexpr uint64_t kTrainSeedBase = 5000;
constexpr uint64_t kModelSeed = 31;
// Evaluation passes over the validation and test splits per rep, each timed
// on its own (~110 ms).
constexpr int kEvalPasses = 4;

}  // namespace

void RunTrainEpoch(const Options& opt, Ledger* ledger, Report* report) {
  auto matcher = SetUp(ledger, report, [](Matcher*) {});

  // Inputs from the seed, encoded with the matcher's tokenizer. A tokenizer
  // trained per seed changed the vocabulary size, and with it the embedding
  // table the optimizer updates on every step.
  data::GeneratorOptions gen;
  gen.seed = kTrainSeedBase + opt.seed;
  const data::EmDataset raw = data::MakeWdc(data::WdcCategory::kComputers,
                                            data::WdcSize::kMedium, gen);
  core::EncodedDataset dataset;
  dataset.name = raw.name;
  dataset.size_tier = raw.size_tier;
  dataset.num_id_classes = raw.num_id_classes;
  dataset.wordpiece = matcher->encoded.wordpiece;
  dataset.max_len = matcher->encoded.max_len;
  for (auto [from, to] : {std::make_pair(&raw.train, &dataset.train),
                          std::make_pair(&raw.valid, &dataset.valid),
                          std::make_pair(&raw.test, &dataset.test)}) {
    for (const auto& pair : *from) {
      to->push_back(core::EncodePair(matcher->encoded, pair,
                                     core::InputStyle::kPlain));
    }
  }

  core::TrainConfig config;
  config.max_epochs = kEpochs;
  config.min_epochs = kEpochs;  // early stopping can never fire
  config.patience = kEpochs + 1;
  config.learning_rate = core::DefaultLearningRate("emba");
  config.seed = kModelSeed;
  config.heartbeat_seconds = 0.0;

  // Trainer::Run is serial by design (mini-batch elements run one after
  // another), so it runs on a one-thread pool. At 4 threads the pool only
  // hands each 43x48 matmul to sleeping workers: epochs ran ~10% slower,
  // and up to 2.3x slower whenever the host was busy.
  SetGlobalThreads(1);
  std::vector<double> run_s, eval_s, traced_s, untraced_s;
  std::vector<double> first_trace;
  double test_f1 = 0.0;
  const PoolWindow pool_before = PoolWindow::Now();
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < 2 || SecondsSince(start) < opt.seconds; ++rep) {
    const bool spans_on = opt.trace && rep % 2 == 1;
    Spans::SetEnabled(spans_on);
    ledger->Attempt();
    Rng rng(kModelSeed);
    auto model = core::CreateModel("emba", BenchBudget(),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    EMBA_CHECK_MSG(model.ok(), model.status().ToString());
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult result;
    double seconds = 0.0;
    {
      ScopedSpan span("core.Trainer.Run");
      const Clock::time_point t = Clock::now();
      result = trainer.Run();
      seconds = SecondsSince(t);
    }
    {
      ScopedSpan span("core.Trainer.Evaluate");
      for (int pass = 0; pass < kEvalPasses; ++pass) {
        const Clock::time_point t = Clock::now();
        trainer.Evaluate(dataset.valid);
        trainer.Evaluate(dataset.test);
        eval_s.push_back(SecondsSince(t));
      }
    }
    run_s.push_back(seconds);
    (spans_on ? traced_s : untraced_s).push_back(seconds);
    bool finite = result.epoch_train_loss.size() == kEpochs;
    for (double l : result.epoch_train_loss) finite = finite && std::isfinite(l);
    ledger->Check(finite, "training loss trace is finite, one per epoch");
    if (rep == 0) {
      first_trace = result.epoch_train_loss;
      if (opt.corrupt_score) first_trace[0] = std::nextafter(first_trace[0], 9);
      test_f1 = result.test.em.f1;
    } else {
      ledger->Check(result.epoch_train_loss == first_trace,
                    "training loss trace repeats exactly");
    }
  }
  Spans::SetEnabled(opt.trace);
  SetGlobalThreads(kBenchThreads);
  const PoolWindow pool_after = PoolWindow::Now();
  report->Add("peak_rss_mb", PeakRssMb(), "MB");

  const double pairs = static_cast<double>(dataset.train.size()) * kEpochs;
  const double run = Median(run_s);
  std::printf("  inputs: %zu training pairs x %d epochs, %zu valid, %zu test; "
              "mean pair length %.1f tokens\n",
              dataset.train.size(), kEpochs, dataset.valid.size(),
              dataset.test.size(), MeanPairTokens(dataset.train));
  std::printf("  %zu Trainer::Run calls; s: q1 %.4f median %.4f q3 %.4f; "
              "loss trace:",
              run_s.size(), Quantile(run_s, 0.25), run, Quantile(run_s, 0.75));
  for (double l : first_trace) std::printf(" %.6f", l);
  std::printf("\n  train_pairs_per_s = %.1f 1/s\n", pairs / run);
  std::printf("  one-epoch model test F1 = %.4f; set-up matcher test F1 = "
              "%.4f\n",
              test_f1, matcher->test_f1);

  const double eval_pairs =
      static_cast<double>(dataset.valid.size() + dataset.test.size());
  const double eval = Median(eval_s);
  std::printf("  Trainer::Evaluate of the trained model over valid + test "
              "(%.0f pairs), %zu passes; s: q1 %.4f median %.4f q3 %.4f; "
              "%.1f pairs/s\n",
              eval_pairs, eval_s.size(), Quantile(eval_s, 0.25), eval,
              Quantile(eval_s, 0.75), eval_pairs / eval);

  report->Add("throughput_per_s", pairs / run, "1/s");
  report->Add("alt_throughput_per_s", eval_pairs / eval, "1/s");
  // One epoch leaves a model too weak for a meaningful F1 (it is often 0),
  // so quality is the test F1 of the matcher Trainer::Run trained in
  // set-up; it moves only if training numerics change.
  report->Add("quality_f1", matcher->test_f1, "F1");
  if (!opt.trace) return;

  if (!traced_s.empty() && !untraced_s.empty()) {
    report->Add("trace.overhead_share",
                Median(traced_s) / Median(untraced_s) - 1.0, "share");
  }
  ReportPool(pool_before, pool_after, report);
  // The trainer's samples are encoded once, before training: no text work
  // per step.
  report->Add("text.record_reuse", 0.0, "count");
  RunLayerProbes(*matcher, dataset.train, raw.train, opt, ledger, report);
}

}  // namespace perfbench
