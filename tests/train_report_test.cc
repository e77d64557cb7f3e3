// Tier-1 test for tools/train_report: runs the real binary on event logs
// written by train_obs. A dataset name holding JSON metacharacters and a
// non-finite loss must survive into the summary, and diff mode keeps its
// exit codes (0 no regression, 1 regression, 2 usage error).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "train_obs/train_obs.h"

#ifndef EMBA_TRAIN_REPORT
#error "EMBA_TRAIN_REPORT must name the train_report binary"
#endif

namespace emba {
namespace {

struct ReportRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

ReportRun RunReport(const std::string& args) {
  ReportRun run;
  const std::string command =
      std::string(EMBA_TRAIN_REPORT) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

constexpr char kDataset[] = "wdc \"quoted\" } name";

// A two-epoch log. Epoch 0's em loss and one step's em loss are
// non-finite; epoch 1's per-example losses are em=`em_loss`, id1=0.5,
// id2=0.75.
std::string WriteLog(const std::string& name, double em_loss) {
  const std::string path = "/tmp/emba_train_report_" + name + ".jsonl";
  std::filesystem::remove(path);
  train_obs::SetEventLogPath(path);
  train_obs::RunInfo info;
  info.dataset = kDataset;
  info.model = "emba";
  info.max_epochs = 2;
  info.has_aux_heads = true;
  EXPECT_TRUE(train_obs::StartRun(info).ok());
  train_obs::StepEvent step;
  step.loss_em = NAN;
  step.n_em = 4;
  step.step_ms = 2.0;
  train_obs::LogStep(step);
  for (int64_t epoch = 0; epoch < 2; ++epoch) {
    train_obs::EpochEvent event;
    event.epoch = epoch;
    event.step = epoch + 1;
    event.n_em = event.n_id1 = event.n_id2 = 4;
    event.loss_em = epoch == 0 ? INFINITY : em_loss * 4;
    event.loss_id1 = 0.5 * 4;
    event.loss_id2 = 0.75 * 4;
    train_obs::LogEpoch(event);
    train_obs::EvalEvent eval;
    eval.epoch = epoch;
    eval.split = "valid";
    eval.f1 = 0.8;
    train_obs::LogEval(eval);
  }
  train_obs::EndRun(/*best_valid_f1=*/0.8, /*test_f1=*/0.75,
                    /*epochs_ran=*/2);
  train_obs::SetEventLogPath("");
  train_obs::ResetTrainObsForTest();
  return path;
}

TEST(TrainReportTest, SummaryKeepsEscapedNameAndPerTaskLosses) {
  const std::string log = WriteLog("summary", 0.25);
  const ReportRun run = RunReport(log);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find(std::string("(emba on ") + kDataset + ")"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("final loss  em=0.2500 id1=0.5000 id2=0.7500"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("best valid F1=0.8000"), std::string::npos)
      << run.output;
  std::filesystem::remove(log);
}

TEST(TrainReportTest, DiffExitCodes) {
  const std::string base = WriteLog("base", 0.25);
  const std::string same = WriteLog("same", 0.25);
  const std::string worse = WriteLog("worse", 0.5);

  const ReportRun clean = RunReport(base + " " + same);
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  EXPECT_EQ(clean.output.find("REGRESSED"), std::string::npos)
      << clean.output;

  const ReportRun regressed = RunReport(base + " " + worse);
  EXPECT_EQ(regressed.exit_code, 1) << regressed.output;
  EXPECT_NE(regressed.output.find("loss.em"), std::string::npos);
  EXPECT_NE(regressed.output.find("REGRESSED"), std::string::npos)
      << regressed.output;

  EXPECT_EQ(RunReport("").exit_code, 2);
  EXPECT_EQ(RunReport(base + " --bogus").exit_code, 2);
  EXPECT_EQ(RunReport(base + " " + same + " " + worse).exit_code, 2);
  for (const std::string& path : {base, same, worse}) {
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace emba
