// Experiment scaling knobs shared by all bench binaries.
//
// The paper trains 12-layer BERT on a V100 for 50 epochs; this reproduction
// runs on one CPU core, so every bench scales its dataset sizes, encoder
// dims, epochs and seed counts through this struct. `EMBA_BENCH_SCALE=quick`
// (default) finishes the whole suite in minutes; `full` runs a heavier
// configuration for tighter replication.
#pragma once

#include <string>

namespace emba {

/// Defaults are the quick scale.
struct BenchScale {
  bool full = false;      ///< EMBA_BENCH_SCALE=full
  int seeds = 2;          ///< independent training runs per (model, dataset)
  int epochs = 4;         ///< max epochs; TrainOnce grants up to +4 adaptively
  int hidden_dim = 32;    ///< encoder hidden size (~400 pairs/s on one core)
  int layers = 2;         ///< encoder depth
  int heads = 4;          ///< attention heads
  int max_len = 48;       ///< max tokens per serialized pair
  double size_factor = 1.0;  ///< multiplier on generated dataset sizes
};

/// Reads EMBA_BENCH_SCALE and returns the corresponding knob set.
BenchScale GetBenchScale();

}  // namespace emba
