// Shared pieces of the EMBA matcher benchmark: options, statistics, the
// result report, the span recorder used by traced runs, and the deployed
// matcher every workload scores with.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/registry.h"
#include "core/sample.h"
#include "data/dataset.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test only: flips one score before the checks run, to prove they
  /// trip (`--corrupt-score`).
  bool corrupt_score = false;
};

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> values);
/// Linear-interpolated quantile of `values`, q in [0, 1].
double Quantile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Result accounting

/// Operations attempted / failed and the correctness checks of one run.
/// Every failed check also counts as one failed operation.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// Records a check; a false `ok` marks the run incorrect.
  void Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_checks_.empty(); }
  const std::vector<std::string>& failed_checks() const {
    return failed_checks_;
  }
  size_t checks_run() const { return checks_run_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t checks_run_ = 0;
  std::vector<std::string> failed_checks_;
};

/// Named metrics of one run, printed as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// Value and unit of a metric already added (0 / "" when absent).
  double Get(const std::string& name) const;
  std::string Unit(const std::string& name) const;
  /// Prints every metric as "  name = value unit" (human table).
  void PrintTable(const char* title) const;
  std::string Json(const Ledger& ledger) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();

/// Prints the run header: source revision, CPU flags and core count.
void PrintEnvironment(const Options& options);

// ---------------------------------------------------------------------------
// Spans (traced runs only)

/// In-memory span recorder. Each span carries its name, start and end, the
/// span that caused it and a request id; parents are tracked per thread,
/// and a thread that works for a span opened elsewhere adopts it with
/// AdoptParent. Spans are kept in memory and written out when the run ends.
class Spans {
 public:
  static bool enabled();
  /// Also switches the program's own gated instrumentation
  /// (metrics::SetEnabled: thread-pool queue waits and chunk counts), so
  /// untraced stretches of a traced run pay for neither.
  static void SetEnabled(bool on);

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t id = 0;
    int32_t parent = 0;
    int64_t request = -1;
  };

  /// The innermost open span of the calling thread (0 when none).
  static int32_t Current();
  static std::vector<Span> Snapshot();
  /// Prints the per-name table: count, total, self time and the share of
  /// the span's time its children cover.
  static void PrintTable();
  /// Writes every span as JSON lines to `path`.
  static bool Write(const std::string& path);
};

/// RAII span; a no-op when spans are off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans::Span span_;
};

/// Makes `parent` the current span of this thread for its lifetime (worker
/// threads working on behalf of a span opened on another thread).
class AdoptParent {
 public:
  explicit AdoptParent(int32_t parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  int32_t previous_;
};

// ---------------------------------------------------------------------------
// The deployed matcher

/// The pool width of every multi-threaded stretch of the benchmark. Set
/// explicitly, so neither EMBA_NUM_THREADS nor the host's core count
/// changes the workload.
constexpr int kBenchThreads = 4;

/// The bench budget every workload uses: dim 48, 2 layers, 4 heads,
/// max_len 48.
emba::core::ModelBudget BenchBudget();
emba::core::EncodeOptions BenchEncodeOptions();

/// A trained EMBA matcher. The model keeps a raw pointer to its dropout
/// Rng, so the Rng lives here beside it.
struct Matcher {
  emba::data::EmDataset raw;
  emba::core::EncodedDataset encoded;
  std::unique_ptr<emba::Rng> rng;
  std::unique_ptr<emba::core::EmModel> model;
  std::vector<double> loss_trace;
  double test_f1 = 0.0;
};

/// Generates the training data from a fixed seed, trains the tokenizer and
/// the matcher. Identical on every call.
std::unique_ptr<Matcher> TrainMatcher();

/// Set-up repeated three times (each one a full TrainMatcher plus
/// `extra`, the workload's own warm-up); returns the last matcher and
/// records the median set-up time as `setup_s`. Checks that the training
/// loss trace is finite and identical across the repeats.
std::unique_ptr<Matcher> SetUp(Ledger* ledger, Report* report,
                               const std::function<void(Matcher*)>& extra);

/// Mean token count of a sample set.
double MeanPairTokens(const std::vector<emba::core::PairSample>& samples);

}  // namespace perfbench
