// The benchmark's workloads and the per-layer probes of traced runs.
//
// Every workload reports the same end-to-end metrics (see README.md for
// what each one means on each workload):
//   setup_s, peak_rss_mb, success_share  — added by main / SetUp
//   throughput_per_s, alt_throughput_per_s, quality_f1 — added here
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "core/sample.h"
#include "data/record.h"
#include "util/metrics.h"

namespace perfbench {

void RunDedupeOffline(const Options& options, Ledger* ledger, Report* report);
void RunTrainEpoch(const Options& options, Ledger* ledger, Report* report);

/// Per-layer probes shared by every traced run: tensor GEMMs, the nn
/// layers, the encoder, the EMBA forward split, batched scoring at 1 and 4
/// threads, the grad-mode forward, backward and optimizer step, and the
/// serving layers of a MatchService. `samples` are the workload's encoded
/// pairs, `pairs` the record pairs they came from. Every served /match score
/// is checked against offline MatchProbability through `ledger`.
void RunLayerProbes(Matcher& matcher,
                    const std::vector<emba::core::PairSample>& samples,
                    const std::vector<emba::data::LabeledPair>& pairs,
                    const Options& options, Ledger* ledger, Report* report);

/// Thread-pool counters over a window of a traced run (metrics enabled).
struct PoolWindow {
  uint64_t chunks_total = 0;
  uint64_t chunks_stolen = 0;
  emba::metrics::Histogram::Snapshot queue_wait;
  static PoolWindow Now();
};
/// Adds util.pool_stolen_share and util.pool_queue_wait_p99_us.
void ReportPool(const PoolWindow& before, const PoolWindow& after,
                Report* report);

/// Scores with core::MatchProbability pair by pair on a one-thread pool
/// (each score computed serially), spread over plain threads for speed.
/// Leaves the pool at kBenchThreads.
std::vector<double> SerialReferenceScores(
    const emba::core::EmModel& model,
    const std::vector<emba::core::PairSample>& samples);

/// True when the two score vectors are bit-identical.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench
