#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/registry.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "serve/json.h"
#include "util/thread_pool.h"
#include "util/metrics.h"

namespace perfbench {

using namespace emba;

// ---------------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Result accounting

void Ledger::Check(bool ok, const std::string& what) {
  ++checks_run_;
  ++attempted_;
  if (ok) return;
  failed_checks_.push_back(what);
  ++failed_;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool Report::Has(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.value;
  }
  return 0.0;
}

std::string Report::Unit(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return e.unit;
  }
  return "";
}

void Report::PrintTable(const char* title) const {
  std::printf("%s\n", title);
  for (const auto& e : entries_) {
    std::printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
}

std::string Report::Json(const Ledger& ledger) const {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(1, ledger.attempted())
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0;
    out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name
        << "\": {\"value\": " << serve::json::NumberToString(v)
        << ", \"unit\": \"" << entries_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void PrintEnvironment(const Options& options) {
  const char* sha = std::getenv("PERFBENCH_SOURCE_REV");
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, model;
  while (std::getline(cpuinfo, line)) {
    if (model.empty() && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    }
    if (line.rfind("flags", 0) == 0) {
      std::istringstream words(line.substr(line.find(':') + 1));
      std::string w;
      while (words >> w) {
        if (w == "avx2" || w == "fma" || w == "avx512f" || w == "avx512bw" ||
            w == "avx512_vnni" || w == "avx_vnni" || w == "amx_int8") {
          flags += (flags.empty() ? "" : ",") + w;
        }
      }
      break;
    }
  }
  std::printf("perfbench: workload=%s seed=%llu seconds=%.1f trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("  source=%s cpu=\"%s\" flags=%s cores=%u\n",
              sha != nullptr ? sha : "unknown", model.c_str(),
              flags.empty() ? "none" : flags.c_str(),
              std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Spans

namespace {

std::atomic<bool> g_spans_on{false};
std::atomic<int32_t> g_next_span{1};
std::mutex g_span_mutex;
std::vector<Spans::Span>* g_spans = new std::vector<Spans::Span>();
thread_local int32_t t_current_span = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

bool Spans::enabled() { return g_spans_on.load(std::memory_order_relaxed); }
void Spans::SetEnabled(bool on) {
  g_spans_on.store(on);
  metrics::SetEnabled(on);
}
int32_t Spans::Current() { return t_current_span; }

std::vector<Spans::Span> Spans::Snapshot() {
  std::lock_guard<std::mutex> lock(g_span_mutex);
  return *g_spans;
}

void Spans::PrintTable() {
  const std::vector<Span> spans = Snapshot();
  std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Row {
    size_t count = 0;
    int64_t total = 0;
    int64_t covered = 0;
    bool has_children = false;
  };
  std::map<std::string, Row> rows;
  for (const auto& s : spans) {
    Row& row = rows[s.name];
    ++row.count;
    row.total += s.end_ns - s.start_ns;
    auto it = children.find(s.id);
    if (it != children.end()) {
      row.has_children = true;
      // Clip children to the parent interval (a child on another thread
      // may outlive it by a few ns).
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (auto [cs, ce] : it->second) {
        cs = std::max(cs, s.start_ns);
        ce = std::min(ce, s.end_ns);
        if (ce > cs) clipped.push_back({cs, ce});
      }
      row.covered += UnionLength(std::move(clipped));
    }
  }
  std::printf("per-span table (spans recorded by the benchmark around its "
              "calls; self = total - time covered by child spans):\n");
  std::printf("  %-34s %8s %12s %12s %10s\n", "span", "count", "total ms",
              "self ms", "children");
  for (const auto& [name, row] : rows) {
    const double total_ms = static_cast<double>(row.total) / 1e6;
    const double self_ms = static_cast<double>(row.total - row.covered) / 1e6;
    const double share =
        row.total > 0 ? static_cast<double>(row.covered) /
                            static_cast<double>(row.total)
                      : 0.0;
    char children_cell[32];
    if (row.has_children) {
      std::snprintf(children_cell, sizeof(children_cell), "%.1f%%",
                    share * 100.0);
    } else {
      std::snprintf(children_cell, sizeof(children_cell), "-");
    }
    std::printf("  %-34s %8zu %12.3f %12.3f %10s\n", name.c_str(), row.count,
                total_ms, self_ms, children_cell);
  }
}

bool Spans::Write(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const auto& s : Snapshot()) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) {
  if (!Spans::enabled()) return;
  span_ = Spans::Span{name, NowNs(), 0,
                      g_next_span.fetch_add(1, std::memory_order_relaxed),
                      t_current_span, request};
  t_current_span = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  t_current_span = span_.parent;
  span_.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(g_span_mutex);
  g_spans->push_back(span_);
}

AdoptParent::AdoptParent(int32_t parent) : previous_(t_current_span) {
  t_current_span = parent;
}

AdoptParent::~AdoptParent() { t_current_span = previous_; }

// ---------------------------------------------------------------------------
// The deployed matcher

core::ModelBudget BenchBudget() {
  core::ModelBudget budget;
  budget.dim = 48;
  budget.layers = 2;
  budget.heads = 4;
  budget.max_len = 48;
  return budget;
}

core::EncodeOptions BenchEncodeOptions() {
  core::EncodeOptions options;
  options.max_len = 48;
  options.wordpiece_vocab = 1200;
  options.max_words_per_entity = 24;
  return options;
}

namespace {
// The matcher's training data and seeds are fixed: every workload and every
// --seed scores with the same weights. The small computers tier for six
// epochs is the cheapest set-up that still gives a real matcher (test F1
// about 0.5; three epochs on the medium tier cost more and reach 0.2).
constexpr uint64_t kMatcherDataSeed = 42;
constexpr uint64_t kMatcherModelSeed = 99;
constexpr int kMatcherEpochs = 6;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
}  // namespace

std::unique_ptr<Matcher> TrainMatcher() {
  auto m = std::make_unique<Matcher>();
  data::GeneratorOptions gen;
  gen.seed = kMatcherDataSeed;
  m->raw = data::MakeWdc(data::WdcCategory::kComputers,
                         data::WdcSize::kSmall, gen);
  m->encoded = core::EncodeDataset(m->raw, BenchEncodeOptions());
  m->rng = std::make_unique<Rng>(kMatcherModelSeed);
  auto model = core::CreateModel(
      "emba", BenchBudget(), m->encoded.wordpiece->vocab().size(),
      m->encoded.num_id_classes, m->rng.get());
  EMBA_CHECK_MSG(model.ok(), model.status().ToString());
  m->model = std::move(*model);
  core::TrainConfig config;
  config.max_epochs = kMatcherEpochs;
  config.min_epochs = kMatcherEpochs;
  config.patience = kMatcherEpochs + 1;
  config.learning_rate = core::DefaultLearningRate("emba");
  config.seed = kMatcherModelSeed;
  config.heartbeat_seconds = 0.0;
  core::Trainer trainer(m->model.get(), &m->encoded, config);
  // Serial training on a one-thread pool, as in train_epoch.
  SetGlobalThreads(1);
  core::TrainResult result = trainer.Run();
  SetGlobalThreads(kBenchThreads);
  m->loss_trace = result.epoch_train_loss;
  m->test_f1 = result.test.em.f1;
  m->model->SetTraining(false);
  return m;
}

std::unique_ptr<Matcher> SetUp(Ledger* ledger, Report* report,
                               const std::function<void(Matcher*)>& extra) {
  std::vector<double> times;
  std::vector<double> first_trace;
  std::unique_ptr<Matcher> matcher;
  for (int r = 0; r < kSetupRepeats; ++r) {
    matcher.reset();
    ScopedSpan span("setup");
    const Clock::time_point start = Clock::now();
    matcher = TrainMatcher();
    extra(matcher.get());
    times.push_back(SecondsSince(start));
    bool finite = !matcher->loss_trace.empty();
    for (double l : matcher->loss_trace) finite = finite && std::isfinite(l);
    ledger->Check(finite, "training loss trace is finite");
    if (r == 0) {
      first_trace = matcher->loss_trace;
    } else {
      ledger->Check(matcher->loss_trace == first_trace,
                    "training loss trace repeats exactly across set-ups");
    }
  }
  std::printf("  setup: %d repeats, times s:", kSetupRepeats);
  for (double t : times) std::printf(" %.3f", t);
  std::printf("; matcher test F1 %.4f; loss trace:", matcher->test_f1);
  for (double l : first_trace) std::printf(" %.6f", l);
  std::printf("\n");
  report->Add("setup_s", Median(times), "s");
  return matcher;
}

double MeanPairTokens(const std::vector<core::PairSample>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (const auto& s : samples) total += s.enc.length();
  return total / static_cast<double>(samples.size());
}

}  // namespace perfbench
