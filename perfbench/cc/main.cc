// emba_perfbench — the EMBA matcher benchmark.
//
//   emba_perfbench --workload <dedupe_offline|train_epoch>
//                  --seed N --seconds S --trace 0|1 [--corrupt-score]
//
// Runs one workload whose inputs come from --seed, measures for about
// --seconds, checks the outputs, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 is a separate run that records spans
// around every timed call and reports the per-layer metrics; both lists
// come from BENCHMARK.json in the working directory. Exit status is
// nonzero when a correctness check failed. See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

using perfbench::Ledger;
using perfbench::Options;
using perfbench::Report;

// The metric names and units of one mode, as BENCHMARK.json (in the
// working directory, the checkout root) lists them.
std::vector<std::pair<std::string, std::string>> ListedMetrics(bool trace) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  auto spec = emba::serve::json::Parse(text.str());
  EMBA_CHECK_MSG(spec.ok(), "cannot read BENCHMARK.json");
  const auto* list = spec->Find(trace ? "per_layer" : "end_to_end");
  EMBA_CHECK_MSG(list != nullptr && list->is_array(),
                 "BENCHMARK.json lists no metrics");
  std::vector<std::pair<std::string, std::string>> metrics;
  for (const auto& m : list->AsArray()) {
    const auto* name = m.Find("name");
    const auto* unit = m.Find("unit");
    EMBA_CHECK_MSG(name != nullptr && name->is_string() && unit != nullptr &&
                       unit->is_string(),
                   "a BENCHMARK.json metric lacks a name or unit");
    metrics.emplace_back(name->AsString(), unit->AsString());
  }
  return metrics;
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: emba_perfbench --workload "
               "<dedupe_offline|train_epoch> --seed N "
               "--seconds S --trace 0|1 [--corrupt-score]\n",
               message);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int a = 1; a < argc; ++a) {
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) Usage("a flag is missing its value");
      return argv[++a];
    };
    const std::string flag = argv[a];
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      opt.trace = value() == "1";
    } else if (flag == "--corrupt-score") {
      opt.corrupt_score = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed) Usage("--workload and --seed are required");
  if (opt.seconds <= 0.0 || opt.seconds > 120.0) Usage("--seconds must be in (0, 120]");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  const auto listed = ListedMetrics(opt.trace);
  // The service logs its start and drain at INFO; keep stdout for results.
  emba::SetLogLevel(emba::LogLevel::kWarn);
  perfbench::PrintEnvironment(opt);
  perfbench::Spans::SetEnabled(opt.trace);
  emba::SetGlobalThreads(perfbench::kBenchThreads);

  Ledger ledger;
  Report report;
  if (opt.workload == "dedupe_offline") {
    perfbench::RunDedupeOffline(opt, &ledger, &report);
  } else if (opt.workload == "train_epoch") {
    perfbench::RunTrainEpoch(opt, &ledger, &report);
  } else {
    Usage(("unknown workload " + opt.workload).c_str());
  }
  report.Add("success_share",
             1.0 - static_cast<double>(ledger.failed()) /
                       static_cast<double>(std::max<uint64_t>(1, ledger.attempted())),
             "share");

  std::printf("  operations: attempted %llu failed %llu (failed_share %.6f); "
              "checks run %zu, failed %zu\n",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<double>(ledger.failed()) /
                  static_cast<double>(std::max<uint64_t>(1, ledger.attempted())),
              ledger.checks_run(), ledger.failed_checks().size());

  // Every traced run prints the whole per-layer list; a layer the workload
  // does not exercise reads 0 (pipeline.* on train_epoch, for example).
  Report out;
  for (const auto& [name, unit] : listed) {
    if (!report.Has(name)) {
      EMBA_CHECK_MSG(opt.trace, "missing metric " + name);
      out.Add(name, 0.0, unit);
      continue;
    }
    EMBA_CHECK_MSG(report.Unit(name) == unit, "unit mismatch for " + name);
    out.Add(name, report.Get(name), unit);
  }
  if (opt.trace) {
    std::printf("\n");
    perfbench::Spans::PrintTable();
    const std::string dir = ".bench_out";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (perfbench::Spans::Write(path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  out.PrintTable(opt.trace ? "per-layer metrics (0 = layer idle in this "
                             "workload):"
                           : "end-to-end metrics:");
  std::printf("%s\n", out.Json(ledger).c_str());
  std::fflush(stdout);
  return ledger.correct() ? 0 : 1;
}
