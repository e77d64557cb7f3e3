// dedupe_offline: pipeline::DedupeTables with block::TokenBlocker over two
// generated computers catalogs (~210 records each, ~20k candidates), at
// kBenchThreads (4) threads, fp32 and int8 passes in alternating order.
//
// Why: encoder GEMMs (tensor/nn), the thread pool and tokenization dominate,
// and every record is re-encoded for each of its ~100 candidates. serve and
// the HTTP server sit idle. Packed batching, VNNI int8 and a tokenization
// cache would show here.
#include <cmath>
#include <cstdio>
#include <optional>

#include "block/blocker.h"
#include "core/scoring.h"
#include "data/cluster.h"
#include "data/generator.h"
#include "pipeline/dedupe.h"
#include "tensor/int8.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace emba;

namespace {

// Offset so the catalogs never coincide with the matcher's training data.
constexpr uint64_t kCatalogSeedBase = 7000;
// The catalogs quality_f1 is measured on: the same for every --seed, so the
// metric moves only when the matcher's verdicts do.
constexpr uint64_t kReferenceCatalogSeed = 0;
constexpr size_t kTargetCandidates = 20000;

std::vector<double> Scores(const pipeline::DedupeResult& result) {
  std::vector<double> scores;
  scores.reserve(result.scored.size());
  for (const auto& s : result.scored) scores.push_back(s.match_probability);
  return scores;
}

struct Catalogs {
  std::vector<data::Record> left, right;
};

// The left and right records of a generated test split, cut to the first n
// records per side where n is the largest that keeps the blocked candidate
// count at or under kTargetCandidates: every seed then does the same amount
// of matching work (uncut, the count ranged 22k-27k across seeds).
Catalogs MakeCatalogs(uint64_t seed, const block::Blocker& blocker) {
  data::GeneratorOptions gen;
  gen.seed = kCatalogSeedBase + seed;
  data::EmDataset raw = data::MakeWdc(data::WdcCategory::kComputers,
                                      data::WdcSize::kMedium, gen);
  Catalogs c;
  for (const auto& pair : raw.test) {
    c.left.push_back(pair.left);
    c.right.push_back(pair.right);
  }
  auto candidates_at = [&](size_t n) {
    const std::vector<data::Record> left(c.left.begin(),
                                         c.left.begin() + static_cast<long>(n));
    const std::vector<data::Record> right(
        c.right.begin(), c.right.begin() + static_cast<long>(n));
    return blocker.Candidates(left, right).size();
  };
  size_t lo = 1, hi = c.left.size();
  while (lo < hi) {
    const size_t mid = (lo + hi + 1) / 2;
    if (candidates_at(mid) <= kTargetCandidates) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  c.left.resize(lo);
  c.right.resize(lo);
  return c;
}

// The candidate samples exactly as DedupeTables encodes them.
std::vector<core::PairSample> EncodeCandidates(
    const Matcher& m, const Catalogs& c,
    const std::vector<block::CandidatePair>& candidates,
    std::vector<data::LabeledPair>* pairs) {
  std::vector<core::PairSample> samples;
  samples.reserve(candidates.size());
  for (const auto& [i, j] : candidates) {
    data::LabeledPair pair;
    pair.left = c.left[i];
    pair.right = c.right[j];
    samples.push_back(
        core::EncodePair(m.encoded, pair, m.model->input_style()));
    if (pairs != nullptr) pairs->push_back(std::move(pair));
  }
  return samples;
}

// Traced-run split of one dedupe job into its stages, rebuilt from the
// public pieces DedupeTables is made of, each under its own span.
void TraceStages(const Matcher& m, const Catalogs& c,
                 const block::TokenBlocker& blocker, double job_seconds,
                 Report* report) {
  Clock::time_point t = Clock::now();
  double block_s = 0, encode_s = 0, score_s = 0, cluster_s = 0;
  {
    ScopedSpan job("pipeline.stages");
    std::vector<block::CandidatePair> candidates;
    {
      ScopedSpan span("block.Candidates");
      candidates = blocker.Candidates(c.left, c.right);
    }
    block_s = SecondsSince(t);
    t = Clock::now();
    std::vector<core::PairSample> samples(candidates.size());
    {
      ScopedSpan span("text.EncodePair.parallel");
      GlobalThreadPool().ParallelFor(
          0, static_cast<int64_t>(candidates.size()), 16, [&](int64_t k) {
            const auto& [i, j] = candidates[static_cast<size_t>(k)];
            data::LabeledPair pair;
            pair.left = c.left[i];
            pair.right = c.right[j];
            samples[static_cast<size_t>(k)] =
                core::EncodePair(m.encoded, pair, m.model->input_style());
          });
    }
    encode_s = SecondsSince(t);
    t = Clock::now();
    std::vector<double> probabilities;
    {
      ScopedSpan span("core.BatchMatchProbabilities");
      probabilities = core::BatchMatchProbabilities(*m.model, samples);
    }
    score_s = SecondsSince(t);
    t = Clock::now();
    {
      ScopedSpan span("data.AssignClusterIds");
      std::vector<std::pair<size_t, size_t>> edges;
      for (size_t k = 0; k < candidates.size(); ++k) {
        if (probabilities[k] >= 0.5) {
          edges.emplace_back(candidates[k].first,
                             c.left.size() + candidates[k].second);
        }
      }
      data::AssignClusterIds(c.left.size() + c.right.size(), edges);
    }
    cluster_s = SecondsSince(t);
  }
  const double stages = block_s + encode_s + score_s + cluster_s;
  std::printf("  stage split of one fp32 job (rebuilt from public pieces): "
              "block %.1f ms, encode %.1f ms, score %.1f ms, cluster %.2f ms "
              "= %.1f%% of the DedupeTables job (%.1f ms)\n",
              block_s * 1e3, encode_s * 1e3, score_s * 1e3, cluster_s * 1e3,
              100.0 * stages / job_seconds, job_seconds * 1e3);
  report->Add("pipeline.score_share", score_s / job_seconds, "share");
  report->Add("pipeline.cluster_ms", cluster_s * 1e3, "ms");
  report->Add("pipeline.stage_coverage", stages / job_seconds, "share");
  report->Add("text.encode_share", encode_s / job_seconds, "share");
}

// F1 of the matcher's verdicts on the blocked candidates (before
// clustering) against ground-truth entity ids.
double PairF1(const Catalogs& c, const pipeline::DedupeResult& result) {
  double tp = 0, fp = 0, fn = 0;
  for (const auto& s : result.scored) {
    const bool truth =
        c.left[s.left_index].entity_id == c.right[s.right_index].entity_id;
    const bool predicted = s.match_probability >= 0.5;
    tp += truth && predicted;
    fp += !truth && predicted;
    fn += truth && !predicted;
  }
  return tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0.0;
}

}  // namespace

void RunDedupeOffline(const Options& opt, Ledger* ledger, Report* report) {
  const block::TokenBlocker blocker;
  const Catalogs catalogs = MakeCatalogs(opt.seed, blocker);
  const size_t records = catalogs.left.size() + catalogs.right.size();

  // Set-up ends with a fixed-size warm-up on both paths.
  auto matcher = SetUp(ledger, report, [](Matcher* m) {
    core::BatchMatchProbabilities(*m->model, m->encoded.test);
    int8::SetRuntimeMode(int8::Mode::kOn);
    core::BatchMatchProbabilities(*m->model, m->encoded.test);
    int8::SetRuntimeMode(int8::Mode::kOff);
  });
  core::EmModel* model = matcher->model.get();

  auto run_pass = [&](bool int8_mode, const Catalogs& c) {
    ledger->Attempt();
    int8::SetRuntimeMode(int8_mode ? int8::Mode::kOn : int8::Mode::kOff);
    ScopedSpan span(int8_mode ? "dedupe.job.int8" : "dedupe.job.fp32");
    const Clock::time_point start = Clock::now();
    pipeline::DedupeResult result = pipeline::DedupeTables(
        model, matcher->encoded, blocker, c.left, c.right);
    const double seconds = SecondsSince(start);
    int8::SetRuntimeMode(int8::Mode::kOff);
    return std::make_pair(seconds, std::move(result));
  };

  // Cold-start discipline: one discarded pass per path before timing. The
  // warm-up passes run on the reference catalogs and give quality_f1.
  const Catalogs reference = MakeCatalogs(kReferenceCatalogSeed, blocker);
  const pipeline::DedupeResult reference_fp32 =
      run_pass(false, reference).second;
  const pipeline::DedupeResult reference_int8 =
      run_pass(true, reference).second;

  PoolWindow pool_before = PoolWindow::Now();
  std::vector<double> fp32_s, int8_s, fp32_traced_s, fp32_untraced_s;
  std::optional<pipeline::DedupeResult> fp32_first, int8_first;
  std::vector<double> fp32_scores, int8_scores;
  const Clock::time_point start = Clock::now();
  // Traced runs alternate span recording by rep pair, so the overhead is
  // measured within the run; the fp32/int8 order alternates every rep.
  const int min_reps = opt.trace ? 4 : 2;
  for (int rep = 0; rep < min_reps || SecondsSince(start) < opt.seconds;
       ++rep) {
    const bool spans_on = opt.trace && (rep / 2) % 2 == 1;
    Spans::SetEnabled(spans_on);
    ScopedSpan rep_span("dedupe.rep");
    const bool int8_goes_first = rep % 2 == 1;
    for (int k = 0; k < 2; ++k) {
      const bool int8_mode = (k == 0) == int8_goes_first;
      auto [seconds, result] = run_pass(int8_mode, catalogs);
      std::vector<double> scores = Scores(result);
      if (int8_mode) {
        int8_s.push_back(seconds);
        if (!int8_first.has_value()) {
          int8_scores = scores;
          int8_first = std::move(result);
        } else {
          ledger->Check(BitEqual(scores, int8_scores),
                        "int8 scores of every pass are bit-identical");
        }
      } else {
        fp32_s.push_back(seconds);
        (spans_on ? fp32_traced_s : fp32_untraced_s).push_back(seconds);
        if (!fp32_first.has_value()) {
          fp32_scores = scores;
          if (opt.corrupt_score && !fp32_scores.empty()) {
            fp32_scores[0] = std::nextafter(fp32_scores[0], 2.0);
          }
          fp32_first = std::move(result);
        } else {
          ledger->Check(BitEqual(scores, fp32_scores),
                        "fp32 scores of every pass are bit-identical");
          ledger->Check(
              result.left_clusters == fp32_first->left_clusters &&
                  result.right_clusters == fp32_first->right_clusters,
              "cluster ids match between fp32 passes");
        }
      }
    }
  }
  Spans::SetEnabled(opt.trace);
  const double window_s = SecondsSince(start);
  PoolWindow pool_after = PoolWindow::Now();
  report->Add("peak_rss_mb", PeakRssMb(), "MB");  // before the checks

  // Every fp32 batched score at 4 threads bit-equals serial
  // core::MatchProbability on the same candidate.
  std::vector<block::CandidatePair> candidates;
  for (const auto& s : fp32_first->scored) {
    candidates.emplace_back(s.left_index, s.right_index);
  }
  std::vector<data::LabeledPair> pairs;
  const std::vector<core::PairSample> samples =
      EncodeCandidates(*matcher, catalogs, candidates, &pairs);
  ledger->Check(BitEqual(fp32_scores, SerialReferenceScores(*model, samples)),
                "every fp32 batched score equals serial MatchProbability");

  const auto fp32_quality =
      pipeline::EvaluateClusters(catalogs.left, catalogs.right, *fp32_first);
  const auto int8_quality =
      pipeline::EvaluateClusters(catalogs.left, catalogs.right, *int8_first);
  const double fp32_job = Median(fp32_s);
  const double int8_job = Median(int8_s);
  const double reuse = 2.0 * static_cast<double>(candidates.size()) /
                       static_cast<double>(records);

  std::printf("  inputs: %zu x %zu records, %zu candidates, mean pair length "
              "%.1f tokens, record reuse %.1f encodings per record\n",
              catalogs.left.size(), catalogs.right.size(), candidates.size(),
              MeanPairTokens(samples), reuse);
  std::printf("  %zu fp32 + %zu int8 passes in %.1f s (order alternates); "
              "fp32 job s: q1 %.4f median %.4f q3 %.4f; int8 job s: q1 %.4f "
              "median %.4f q3 %.4f\n",
              fp32_s.size(), int8_s.size(), window_s, Quantile(fp32_s, 0.25),
              fp32_job, Quantile(fp32_s, 0.75), Quantile(int8_s, 0.25),
              int8_job, Quantile(int8_s, 0.75));
  std::printf("  dedupe_records_per_s = %.1f 1/s\n",
              static_cast<double>(records) / fp32_job);
  std::printf("  dedupe_int8_records_per_s = %.1f 1/s\n",
              static_cast<double>(records) / int8_job);
  std::printf("  dedupe_cluster_f1 = %.4f F1 (P %.4f R %.4f)\n",
              fp32_quality.f1, fp32_quality.precision, fp32_quality.recall);
  std::printf("  dedupe_int8_cluster_f1 = %.4f F1 (P %.4f R %.4f)\n",
              int8_quality.f1, int8_quality.precision, int8_quality.recall);
  std::printf("  candidate-pair F1 (fp32 verdicts vs truth) = %.4f\n",
              PairF1(catalogs, *fp32_first));
  const double reference_f1 = PairF1(reference, reference_fp32);
  std::printf("  reference catalogs (%zu x %zu records, %zu candidates): "
              "candidate-pair F1 fp32 %.4f, int8 %.4f\n",
              reference.left.size(), reference.right.size(),
              reference_fp32.scored.size(), reference_f1,
              PairF1(reference, reference_int8));

  // Candidate pairs per second, the paper's Table 7 unit.
  report->Add("throughput_per_s",
              static_cast<double>(candidates.size()) / fp32_job, "1/s");
  report->Add("alt_throughput_per_s",
              static_cast<double>(candidates.size()) / int8_job, "1/s");
  report->Add("quality_f1", reference_f1, "F1");
  if (!opt.trace) return;

  // ---- traced run: the per-layer metrics this workload exercises ----
  if (!fp32_traced_s.empty() && !fp32_untraced_s.empty()) {
    report->Add("trace.overhead_share",
                Median(fp32_traced_s) / Median(fp32_untraced_s) - 1.0,
                "share");
  }
  ReportPool(pool_before, pool_after, report);
  std::vector<double> block_ms;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point t = Clock::now();
    blocker.Candidates(catalogs.left, catalogs.right);
    block_ms.push_back(SecondsSince(t) * 1e3);
  }
  const block::BlockingQuality bq =
      block::EvaluateBlocking(catalogs.left, catalogs.right, candidates);
  report->Add("block.candidates_ms", Median(block_ms), "ms");
  report->Add("block.candidates", static_cast<double>(bq.candidates),
              "count");
  report->Add("block.reduction_ratio", bq.reduction_ratio, "share");
  report->Add("block.pair_completeness", bq.pair_completeness, "share");
  {
    ScopedSpan span("text.EncodePair.serial");
    const Clock::time_point t = Clock::now();
    EncodeCandidates(*matcher, catalogs, candidates, nullptr);
    report->Add("text.encode_pair_us",
                SecondsSince(t) * 1e6 / static_cast<double>(candidates.size()),
                "us");
  }
  report->Add("text.record_reuse", reuse, "count");
  TraceStages(*matcher, catalogs, blocker, fp32_job, report);
  RunLayerProbes(*matcher, samples, pairs, opt, ledger, report);
}

}  // namespace perfbench
