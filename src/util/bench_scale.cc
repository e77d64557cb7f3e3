#include "util/bench_scale.h"

#include "util/env.h"

namespace emba {

BenchScale GetBenchScale() {
  BenchScale scale;  // quick
  if (env::ReadChoice(env::Knob::kBenchScale, {"quick", "full"}) == 1u) {
    scale.full = true;
    scale.seeds = 5;
    scale.epochs = 10;
    scale.hidden_dim = 48;
    scale.max_len = 64;
    scale.size_factor = 1.5;
  }
  return scale;
}

}  // namespace emba
