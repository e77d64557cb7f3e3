// Tests for the training-run observability stack (src/train_obs): the JSONL
// event log (per-task series, kill-and-resume dedup), the numerics sentinels
// (NaN/Inf detection, nan-abort fail-fast), checkpoint telemetry, the
// heartbeat throttle, attention statistics, and the /trainz JSON — plus
// the Histogram NaN-rejection regression test the sentinels depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "tensor/tensor.h"
#include "train_obs/train_obs.h"
#include "util/atomic_file.h"
#include "util/http_server.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/trace.h"

namespace emba {
namespace {

std::string TempPath(const std::string& name) { return "/tmp/emba_" + name; }

std::vector<std::string> ReadLines(const std::string& path) {
  std::string contents;
  EMBA_CHECK(ReadFileToString(path, &contents).ok());
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < contents.size()) {
    size_t nl = contents.find('\n', pos);
    if (nl == std::string::npos) nl = contents.size();
    if (nl > pos) lines.push_back(contents.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

bool EventType(const std::string& line, std::string* type) {
  const std::string needle = "\"type\": \"";
  const size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const size_t start = pos + needle.size();
  const size_t stop = line.find('"', start);
  if (stop == std::string::npos) return false;
  *type = line.substr(start, stop - start);
  return true;
}

int64_t FieldInt(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = line.find(needle);
  EMBA_CHECK_MSG(pos != std::string::npos, "missing field " + key);
  return std::strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
}

/// The per-type event lines of a log, in file order.
std::vector<std::string> EventsOfType(const std::string& path,
                                      const std::string& want) {
  std::vector<std::string> out;
  for (const std::string& line : ReadLines(path)) {
    std::string type;
    if (EventType(line, &type) && type == want) out.push_back(line);
  }
  return out;
}

/// Shared reset: every test starts with no run state, no event log, all
/// train_obs gates off, and zeroed metrics.
void ResetObservability() {
  train_obs::ResetTrainObsForTest();
  train_obs::SetEventLogPath("");
  train_obs::SetNanAbort(false);
  train_obs::SetSentinelsEnabled(false);
  train_obs::SetAttnStatsEnabled(false);
  metrics::Registry::Global().ResetAllForTest();
}

class TrainObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetObservability(); }
  void TearDown() override { ResetObservability(); }
};

// Mirrors the checkpoint-test resume fixture: a tiny encoded WDC split and
// model budget small enough that a full training run takes ~a second.
core::EncodedDataset TinyDataset() {
  data::GeneratorOptions options;
  options.seed = 33;
  options.size_factor = 0.3;
  auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
  core::EncodeOptions encode_options;
  encode_options.max_len = 32;
  encode_options.wordpiece_vocab = 600;
  return core::EncodeDataset(dataset, encode_options);
}

core::ModelBudget TinyBudget() {
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 32;
  return budget;
}

core::TrainConfig TinyConfig(Rng* dropout_rng) {
  core::TrainConfig config;
  config.max_epochs = 2;
  config.min_epochs = 1;
  config.patience = 4;
  config.seed = 77;
  config.dropout_rng = dropout_rng;
  config.heartbeat_seconds = 0.0;
  return config;
}

// ---------- Histogram NaN rejection (sentinel substrate) ----------

TEST(HistogramNanTest, ObserveRejectsNanWithoutPoisoningSum) {
  metrics::Histogram hist({1.0, 2.0});
  hist.Observe(std::nan(""));
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.NanCount(), 1u);
  hist.Observe(0.5);
  hist.Observe(std::nan(""));
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_EQ(hist.NanCount(), 2u);
  // The regression this guards: one NaN in sum_ poisons every later mean.
  EXPECT_FALSE(std::isnan(hist.Sum()));
  EXPECT_DOUBLE_EQ(hist.Sum(), 0.5);
}

TEST(HistogramNanTest, InfinityIsStillALegalObservation) {
  metrics::Histogram hist({1.0, 2.0});
  hist.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.Count(), 1u);
  EXPECT_EQ(hist.NanCount(), 0u);
  const auto snap = hist.GetSnapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 3u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);  // +inf bucket
}

TEST(HistogramNanTest, ExemplarPathRejectsNanToo) {
  metrics::Histogram hist({1.0});
  hist.ObserveWithExemplar(std::nan(""), 0xabcd);
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_EQ(hist.NanCount(), 1u);
  EXPECT_TRUE(hist.SnapshotExemplars().empty());
}

// ---------- Sentinel unit behavior ----------

/// Opens a run (no event log) whose parameters are `param_names`, so the
/// per-step Observe* hooks have a module grouping to work with.
void StartRunWithParams(std::vector<std::string> param_names) {
  train_obs::RunInfo info;
  info.param_names = std::move(param_names);
  ASSERT_TRUE(train_obs::StartRun(info).ok());
}

TEST_F(TrainObsTest, ObserveGradientsFlagsFirstNonfiniteParam) {
  train_obs::SetSentinelsEnabled(true);
  StartRunWithParams({"encoder.w", "em_head.w"});
  Tensor good = Tensor::FromVector({0.5f, -0.5f});
  Tensor bad = Tensor::FromVector({1.0f, std::nanf("")});
  auto obs = train_obs::ObserveGradients({&good, &bad});
  EXPECT_TRUE(obs.nonfinite);
  EXPECT_EQ(obs.offender, "em_head.w");
  ASSERT_EQ(obs.module_norms.size(), 2u);
  EXPECT_EQ(obs.module_norms[0].first, "em_head");
  EXPECT_EQ(obs.module_norms[1].first, "encoder");
  EXPECT_NEAR(obs.module_norms[1].second, std::sqrt(0.5), 1e-6);
  EXPECT_EQ(metrics::GetCounter("training.numerics.nonfinite_grads").Value(),
            1u);
}

TEST_F(TrainObsTest, ObserveGradientsSkipsNullAndStaysFinite) {
  train_obs::SetSentinelsEnabled(true);
  StartRunWithParams({"m.w", "m.frozen"});
  Tensor grad = Tensor::FromVector({3.0f, 4.0f});
  auto obs = train_obs::ObserveGradients({&grad, nullptr});
  EXPECT_FALSE(obs.nonfinite);
  EXPECT_NEAR(obs.global_norm, 5.0, 1e-9);
  EXPECT_EQ(metrics::GetCounter("training.numerics.nonfinite_grads").Value(),
            0u);
}

TEST_F(TrainObsTest, ObserveLossNamesTheOffendingTask) {
  train_obs::SetSentinelsEnabled(true);
  std::string offender;
  EXPECT_TRUE(train_obs::ObserveLoss(0.5, 1.0, 2.0, &offender));
  EXPECT_FALSE(train_obs::ObserveLoss(
      0.5, std::numeric_limits<double>::infinity(), 2.0, &offender));
  EXPECT_EQ(offender, "id1");
  EXPECT_EQ(metrics::GetCounter("training.numerics.nonfinite_losses").Value(),
            1u);
}

TEST_F(TrainObsTest, AttentionRowObserverFeedsEntropyAndRowmax) {
  train_obs::SetAttnStatsEnabled(true);
  const int family = train_obs::RegisterAttentionFamily("unittest_fam");
  EXPECT_EQ(train_obs::RegisterAttentionFamily("unittest_fam"), family);
  // Two softmax rows: uniform over 4 (entropy ln 4, max 0.25) and a
  // one-hot (entropy 0, max 1).
  Tensor rows = Tensor::FromValues(
      2, 4, {0.25f, 0.25f, 0.25f, 0.25f, 1.0f, 0.0f, 0.0f, 0.0f});
  train_obs::ObserveAttentionRows(family, rows);
  auto& entropy =
      metrics::GetHistogram("training.attn.entropy.unittest_fam");
  auto& rowmax = metrics::GetHistogram("training.attn.rowmax.unittest_fam");
  EXPECT_EQ(entropy.Count(), 2u);
  EXPECT_EQ(rowmax.Count(), 2u);
  EXPECT_NEAR(entropy.Sum(), std::log(4.0), 1e-6);
  EXPECT_NEAR(rowmax.Sum(), 1.25, 1e-6);
}

// ---------- End-to-end: emba training with full telemetry ----------

TEST_F(TrainObsTest, EmbaRunEmitsPerTaskSeriesCheckpointsAndTrainz) {
  const std::string log_path = TempPath("train_obs_events.jsonl");
  const std::string ckpt = TempPath("train_obs_run.ckpt");
  std::remove(log_path.c_str());
  std::remove(ckpt.c_str());
  train_obs::SetEventLogPath(log_path);
  trace::Start();

  core::EncodedDataset dataset = TinyDataset();
  Rng rng(11);
  auto model = core::CreateModel("emba", TinyBudget(),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config = TinyConfig(&rng);
  config.checkpoint_path = ckpt;
  // Pathological heartbeat interval: fires every step, so the 1 Hz
  // throttle must suppress almost all of them.
  config.heartbeat_seconds = 1e-4;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  trace::Stop();
  ASSERT_EQ(result.epochs_ran, 2);

  // Per-task series: every step event carries all three MTL heads, with
  // id-head losses genuinely populated (emba has aux heads).
  const auto steps = EventsOfType(log_path, "step");
  ASSERT_GT(steps.size(), 2u);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(FieldInt(steps[i], "step"), static_cast<int64_t>(i));
    EXPECT_NE(steps[i].find("\"loss\": {\"em\": "), std::string::npos);
    EXPECT_NE(steps[i].find("\"id1\": "), std::string::npos);
    EXPECT_NE(steps[i].find("\"id2\": "), std::string::npos);
    // Examples counts live behind the loss sums; anchor on the full key
    // path so the loss object's "em" can't shadow the count.
    const size_t ex = steps[i].find("\"examples\": {\"em\": ");
    ASSERT_NE(ex, std::string::npos);
    EXPECT_GT(std::strtoll(steps[i].c_str() + ex + 19, nullptr, 10), 0);
  }
  const auto run_starts = EventsOfType(log_path, "run_start");
  ASSERT_EQ(run_starts.size(), 1u);
  EXPECT_NE(run_starts[0].find("\"model\": \"emba\""), std::string::npos);
  EXPECT_NE(run_starts[0].find("\"aux_heads\": true"), std::string::npos);
  EXPECT_EQ(EventsOfType(log_path, "epoch").size(), 2u);
  const auto evals = EventsOfType(log_path, "eval");
  EXPECT_EQ(evals.size(), 3u);  // 2 valid + 1 test
  EXPECT_EQ(EventsOfType(log_path, "run_end").size(), 1u);

  // Checkpoint telemetry: the counters, the event, the span, /trainz state.
  EXPECT_EQ(metrics::GetCounter("training.checkpoint.writes").Value(), 2u);
  EXPECT_GT(metrics::GetCounter("training.checkpoint.bytes").Value(), 0u);
  const auto ckpts = EventsOfType(log_path, "checkpoint");
  ASSERT_EQ(ckpts.size(), 2u);
  EXPECT_NE(ckpts[0].find(ckpt), std::string::npos);
  EXPECT_GT(FieldInt(ckpts[0], "bytes"), 0);
  http::HttpRequest req;
  req.method = "GET";
  req.path = "/tracez";
  Result<json::Value> tracez =
      json::Parse(HandleObservabilityRequest(req).body);
  ASSERT_TRUE(tracez.ok()) << tracez.status();
  const json::Value* spans = tracez->Find("events");
  ASSERT_TRUE(spans != nullptr && spans->is_array());
  bool saw_write_span = false;
  for (const json::Value& span : spans->AsArray()) {
    const json::Value* name = span.Find("name");
    if (name != nullptr && name->is_string() &&
        name->AsString() == "trainer/checkpoint_write") {
      saw_write_span = true;
    }
  }
  EXPECT_TRUE(saw_write_span);

  // Heartbeat throttle: the per-step firing rate must have been suppressed.
  EXPECT_GT(metrics::GetCounter("training.heartbeat.suppressed").Value(), 0u);

  // Sentinels never fired on a healthy run.
  EXPECT_EQ(metrics::GetCounter("training.numerics.nonfinite_losses").Value(),
            0u);
  EXPECT_EQ(metrics::GetCounter("training.numerics.nonfinite_grads").Value(),
            0u);

  // /trainz carries the same per-task series. (Routing to it is covered by
  // the endpoint-table test in obs_server_test.)
  req.path = "/trainz";
  http::HttpResponse json = train_obs::HandleTrainzRequest(req);
  EXPECT_EQ(json.status, 200);
  EXPECT_NE(json.body.find("\"finished\": true"), std::string::npos);
  EXPECT_NE(json.body.find("\"model\": \"emba\""), std::string::npos);
  for (const char* key :
       {"\"epoch_loss\"", "\"loss_em\": [", "\"loss_id1\": [",
        "\"loss_id2\": [", "\"eval\"", "\"sentinels\"", "\"last_checkpoint\""}) {
    EXPECT_NE(json.body.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.body.find("\"loss_id1\": []"), std::string::npos)
      << "id1 series empty for an aux-head model";
  Result<json::Value> trainz = json::Parse(json.body);
  ASSERT_TRUE(trainz.ok()) << trainz.status();
  // A finished run keeps its final duration rather than reading 0.
  const json::Value* run_seconds = trainz->Find("run_seconds");
  ASSERT_TRUE(run_seconds != nullptr && run_seconds->is_number());
  EXPECT_GT(run_seconds->AsNumber(), 0.0);
  const json::Value* last = trainz->Find("last_checkpoint");
  ASSERT_TRUE(last != nullptr && last->Find("path") != nullptr);
  EXPECT_EQ(last->Find("path")->AsString(), ckpt);
  EXPECT_EQ(last->Find("epoch")->AsNumber(), 1.0);

  std::remove(log_path.c_str());
  std::remove(ckpt.c_str());
}

// ---------- Per-module grouping of the step telemetry ----------

TEST_F(TrainObsTest, StepEventsGroupEveryTopLevelModule) {
  const std::string log_path = TempPath("train_obs_modules.jsonl");
  std::remove(log_path.c_str());
  train_obs::SetEventLogPath(log_path);

  core::EncodedDataset dataset = TinyDataset();
  Rng rng(11);
  auto model = core::CreateModel("emba", TinyBudget(),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  std::set<std::string> modules;
  for (const auto& [name, var] : (*model)->NamedParameters()) {
    modules.insert(name.substr(0, name.find('.')));
  }
  const std::vector<std::string> want(modules.begin(), modules.end());
  ASSERT_GT(want.size(), 1u);

  core::TrainConfig config = TinyConfig(&rng);
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());

  const auto keys_of = [](const json::Value& object) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : object.AsObject()) keys.push_back(key);
    return keys;
  };
  const auto steps = EventsOfType(log_path, "step");
  ASSERT_GT(steps.size(), 2u);
  for (const std::string& line : steps) {
    Result<json::Value> step = json::Parse(line);
    ASSERT_TRUE(step.ok()) << step.status();
    const json::Value* norms = step->Find("grad_norms");
    const json::Value* ratios = step->Find("update_ratios");
    ASSERT_TRUE(norms != nullptr && norms->is_object()) << line;
    ASSERT_TRUE(ratios != nullptr && ratios->is_object()) << line;
    EXPECT_EQ(keys_of(*norms), want) << line;
    EXPECT_EQ(keys_of(*ratios), want) << line;
    // The module norms partition the global norm.
    double sum_sq = 0.0;
    for (const auto& [module, norm] : norms->AsObject()) {
      sum_sq += norm.AsNumber() * norm.AsNumber();
    }
    const double global = step->Find("grad_norm")->AsNumber();
    EXPECT_NEAR(sum_sq, global * global, 1e-9 * global * global) << line;
  }
  std::remove(log_path.c_str());
}

// ---------- Kill-and-resume event-log stitching ----------

TEST_F(TrainObsTest, KillAndResumeLeavesOneDuplicateFreeEventLog) {
  core::EncodedDataset dataset = TinyDataset();
  const std::string log_a = TempPath("train_obs_log_a.jsonl");
  const std::string log_b = TempPath("train_obs_log_b.jsonl");
  const std::string ckpt = TempPath("train_obs_resume.ckpt");
  std::remove(log_a.c_str());
  std::remove(log_b.c_str());
  std::remove(ckpt.c_str());

  auto train = [&](const std::string& log_path, int interrupt_after,
                   bool resume) {
    train_obs::SetEventLogPath(log_path);
    Rng rng(11);
    auto model = core::CreateModel("emba", TinyBudget(),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    ASSERT_TRUE(model.ok());
    core::TrainConfig config = TinyConfig(&rng);
    config.max_epochs = 3;
    config.checkpoint_path = ckpt;
    config.interrupt_after_epochs = interrupt_after;
    config.resume = resume;
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult result;
    ASSERT_TRUE(trainer.Run(&result).ok());
  };

  // Reference: one uninterrupted 3-epoch run.
  train(log_a, 0, false);
  // Kill after 2 epochs, then resume into the *same* log.
  std::remove(ckpt.c_str());
  train(log_b, 2, false);
  train(log_b, 0, true);

  // The stitched log holds exactly the reference step sequence — the
  // post-checkpoint steps of the killed run were trimmed, the replayed
  // steps appended once, nothing missing and nothing doubled.
  const auto ref_steps = EventsOfType(log_a, "step");
  const auto stitched_steps = EventsOfType(log_b, "step");
  ASSERT_EQ(stitched_steps.size(), ref_steps.size());
  for (size_t i = 0; i < ref_steps.size(); ++i) {
    EXPECT_EQ(FieldInt(stitched_steps[i], "step"),
              FieldInt(ref_steps[i], "step"));
    // Resume is bit-identical, so the per-task loss payloads match too.
    const auto loss_of = [](const std::string& line) {
      const size_t start = line.find("\"loss\": {");
      const size_t stop = line.find('}', start);
      return line.substr(start, stop - start);
    };
    EXPECT_EQ(loss_of(stitched_steps[i]), loss_of(ref_steps[i])) << i;
  }
  EXPECT_EQ(EventsOfType(log_b, "epoch").size(),
            EventsOfType(log_a, "epoch").size());
  // One run_start per process run survives (fresh + resumed), and only the
  // resumed run reaches the final eval + run_end.
  EXPECT_EQ(EventsOfType(log_b, "run_start").size(), 2u);
  EXPECT_EQ(EventsOfType(log_b, "run_end").size(), 1u);

  std::remove(log_a.c_str());
  std::remove(log_b.c_str());
  std::remove(ckpt.c_str());
}

// ---------- nan-abort fail-fast ----------

TEST_F(TrainObsTest, InjectedInfGradientTripsNanAbort) {
  // Fork-with-threads is unsafe once the kernel thread pool exists; the
  // threadsafe style re-executes the binary so the child starts clean.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::EncodedDataset dataset = TinyDataset();
  EXPECT_EXIT(
      {
        Rng rng(11);
        auto model = core::CreateModel("emba", TinyBudget(),
                                       dataset.wordpiece->vocab().size(),
                                       dataset.num_id_classes, &rng);
        EMBA_CHECK(model.ok());
        core::TrainConfig config = TinyConfig(&rng);
        config.inject_inf_grad_at_step = 1;
        train_obs::SetNanAbort(true);
        core::Trainer trainer(model->get(), &dataset, config);
        trainer.Run();
      },
      ::testing::ExitedWithCode(train_obs::kNanAbortExitCode),
      "nan-abort: non-finite value in grad:");
}

TEST_F(TrainObsTest, InjectedInfWithoutNanAbortOnlyCountsAndContinues) {
  train_obs::SetSentinelsEnabled(true);
  core::EncodedDataset dataset = TinyDataset();
  Rng rng(11);
  auto model = core::CreateModel("emba", TinyBudget(),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config = TinyConfig(&rng);
  config.max_epochs = 1;
  config.inject_inf_grad_at_step = 0;
  core::Trainer trainer(model->get(), &dataset, config);
  core::TrainResult result;
  ASSERT_TRUE(trainer.Run(&result).ok());
  EXPECT_GE(metrics::GetCounter("training.numerics.nonfinite_grads").Value(),
            1u);
  // The offender surfaces on /trainz even without an event log.
  http::HttpRequest req;
  req.method = "GET";
  req.path = "/trainz";
  http::HttpResponse json = train_obs::HandleTrainzRequest(req);
  EXPECT_NE(json.body.find("\"last_offender\": \"grad:"), std::string::npos);
}

// ---------- StartRun failure surface ----------

TEST_F(TrainObsTest, UnwritableEventLogPathIsACleanIOError) {
  train_obs::SetEventLogPath("/tmp/emba_no_such_dir_xyz/events.jsonl");
  train_obs::RunInfo info;
  info.dataset = "d";
  info.model = "m";
  Status status = train_obs::StartRun(info);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace emba
