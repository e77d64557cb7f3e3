// Tier-1 test for the numeric flags of tools/emba_cli and bench/serve_bench:
// runs the real binaries. A malformed or out-of-range value must exit 1 and
// name the flag before any subcommand runs; well-formed values still work.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#ifndef EMBA_CLI
#error "EMBA_CLI must name the emba_cli binary"
#endif
#ifndef EMBA_SERVE_BENCH
#error "EMBA_SERVE_BENCH must name the serve_bench binary"
#endif

namespace emba {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr
};

CliRun RunBinary(const char* binary, const std::string& args) {
  CliRun run;
  const std::string command = std::string(binary) + " " + args + " 2>&1";
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

CliRun RunCli(const std::string& args) { return RunBinary(EMBA_CLI, args); }

class CliFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("emba_cli_test_" + std::to_string(getpid()));
    std::filesystem::create_directories(dir_);
    prefix_ = (dir_ / "data").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Runs `generate` behind `flags` and checks it is refused before it
  // writes anything.
  void ExpectRefused(const std::string& flags, const std::string& flag) {
    const CliRun run =
        RunCli(flags + " generate wdc_computers_small " + prefix_);
    EXPECT_EQ(run.exit_code, 1) << flags << "\n" << run.output;
    EXPECT_NE(run.output.find(flag), std::string::npos) << run.output;
    EXPECT_FALSE(std::filesystem::exists(prefix_ + "_train.csv")) << flags;
  }

  std::filesystem::path dir_;
  std::string prefix_;
};

TEST_F(CliFlagsTest, MalformedObsPortExitsOne) {
  ExpectRefused("--serve-obs abc", "--serve-obs");
}

TEST_F(CliFlagsTest, TrailingGarbageInThreadsExitsOne) {
  ExpectRefused("--threads 3x", "--threads");
}

TEST_F(CliFlagsTest, OutOfRangeValuesExitOne) {
  ExpectRefused("--threads 0", "--threads");
  ExpectRefused("--threads 1025", "--threads");
  ExpectRefused("--serve-obs 65536", "--serve-obs");
  ExpectRefused("--serve-obs -1", "--serve-obs");
}

TEST_F(CliFlagsTest, MalformedServeFlagsExitOneBeforeLoading) {
  // The model file does not exist: the flag error must come first.
  for (const char* flags :
       {"--threshold abc", "--threshold 1.5", "--top-k 0", "--port 8o80",
        "--batch-deadline-us -5"}) {
    const CliRun run = RunCli("serve " + prefix_ + " emba " + prefix_ +
                              ".bin " + flags);
    EXPECT_EQ(run.exit_code, 1) << flags << "\n" << run.output;
    const std::string flag = std::string(flags).substr(
        0, std::string(flags).find(' '));
    EXPECT_NE(run.output.find(flag + " requires"), std::string::npos)
        << run.output;
  }
}

TEST_F(CliFlagsTest, ServeBenchRejectsTrailingGarbage) {
  // atof/atoi would read these as 0.2 and 2 and start a load run.
  for (const char* flags : {"--duration 0.2x", "--senders 2x"}) {
    const CliRun run = RunBinary(EMBA_SERVE_BENCH, flags);
    EXPECT_EQ(run.exit_code, 1) << flags << "\n" << run.output;
    const std::string flag = std::string(flags).substr(
        0, std::string(flags).find(' '));
    EXPECT_NE(run.output.find(flag + " requires"), std::string::npos)
        << run.output;
  }
}

TEST_F(CliFlagsTest, WellFormedFlagsStillRun) {
  const CliRun run =
      RunCli("--threads 1 generate wdc_computers_small " + prefix_);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(std::filesystem::exists(prefix_ + "_train.csv"));
}

}  // namespace
}  // namespace emba
