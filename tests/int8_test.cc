// Tier-1 tests for the int8 dynamically-quantized inference path
// (DESIGN.md §14): mode gating, the determinism guarantees that survive
// quantization (backend and thread-count bit-identity, tiny-arena
// fallback), quantized-weight cache invalidation, the zero-allocation
// steady state with int8 scratch, the zero-element tensor audit, and the
// end-to-end tolerance contract (F1 parity with fp32).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "autograd/var.h"
#include "core/registry.h"
#include "core/scoring.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "nn/optimizer.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace emba {
namespace {

// Restores int8 mode, kernel dispatch, and the thread pool whatever a test
// forced in between.
class Int8EnvGuard {
 public:
  ~Int8EnvGuard() {
    int8::ResetMode();
    kernels::ResetBackend();
    SetGlobalThreads(1);
  }
};

bool Avx2Available() {
  return kernels::Avx2KernelsOrNull() != nullptr && kernels::CpuSupportsAvx2();
}

struct World {
  core::EncodedDataset encoded;
  std::unique_ptr<Rng> rng;
};

World& SharedWorld() {
  static World* world = [] {
    auto* w = new World();
    data::GeneratorOptions options;
    options.seed = 23;
    options.size_factor = 0.3;
    auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                                 data::WdcSize::kSmall, options);
    core::EncodeOptions encode;
    encode.max_len = 24;
    encode.wordpiece_vocab = 400;
    w->encoded = core::EncodeDataset(dataset, encode);
    w->rng = std::make_unique<Rng>(7);
    return w;
  }();
  return *world;
}

std::unique_ptr<core::EmModel> MakeEvalModel() {
  World& w = SharedWorld();
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel("emba", budget,
                                 w.encoded.wordpiece->vocab().size(),
                                 w.encoded.num_id_classes, w.rng.get());
  EXPECT_TRUE(model.ok());
  (*model)->SetTraining(false);
  return std::move(*model);
}

std::vector<core::PairSample> TestSlice(size_t n) {
  const auto& test = SharedWorld().encoded.test;
  return std::vector<core::PairSample>(
      test.begin(), test.begin() + std::min(n, test.size()));
}

TEST(Int8ModeTest, EligibilityFollowsModeAndShape) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOff);
  EXPECT_FALSE(int8::Eligible(1, 64, 64));

  int8::SetRuntimeMode(int8::Mode::kOn);
  EXPECT_TRUE(int8::Eligible(1, 1, 1));
  EXPECT_TRUE(int8::Eligible(8, 16, 16));
  EXPECT_FALSE(int8::Eligible(0, 16, 16));  // empty activation block
  // k beyond the i32 accumulator overflow cap (127·127·k < 2³¹).
  EXPECT_FALSE(int8::Eligible(1, 200000, 8));
}

TEST(Int8ModeTest, EnvResolutionAndOverride) {
  Int8EnvGuard guard;
  ASSERT_EQ(setenv("EMBA_INT8", "on", 1), 0);
  int8::ResetMode();
  EXPECT_EQ(int8::ActiveMode(), int8::Mode::kOn);
  // A runtime override (the --int8 flag) beats the environment.
  int8::SetRuntimeMode(int8::Mode::kOff);
  EXPECT_EQ(int8::ActiveMode(), int8::Mode::kOff);
  ASSERT_EQ(setenv("EMBA_INT8", "definitely-not-a-mode", 1), 0);
  int8::ResetMode();
  EXPECT_EQ(int8::ActiveMode(), int8::Mode::kOff);  // unrecognized → off
  ASSERT_EQ(unsetenv("EMBA_INT8"), 0);
  int8::ResetMode();
  EXPECT_EQ(int8::ActiveMode(), int8::Mode::kOff);  // unset → off
}

TEST(Int8DeterminismTest, ScalarAndAvx2BackendsBitIdentical) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "AVX2 backend not available on this build or CPU";
  }
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  auto model = MakeEvalModel();
  const auto samples = TestSlice(8);

  // The EMBA_SIMD=off + EMBA_INT8=on composition: quantization is
  // elementwise IEEE math shared by both backends and the integer GEMM is
  // exact, so — unlike fp32, where only same-backend results match — int8
  // scores are bit-identical ACROSS backends.
  kernels::ForceBackend(kernels::Backend::kScalar);
  const auto scalar_probs = core::BatchMatchProbabilities(*model, samples);
  kernels::ForceBackend(kernels::Backend::kAvx2);
  const auto avx2_probs = core::BatchMatchProbabilities(*model, samples);

  ASSERT_EQ(scalar_probs.size(), avx2_probs.size());
  for (size_t i = 0; i < scalar_probs.size(); ++i) {
    // The surrounding fp32 ops (softmax, layernorm, AoA) still follow the
    // scalar-exact contract, so the full pipeline stays bit-identical.
    EXPECT_EQ(scalar_probs[i], avx2_probs[i]) << "sample " << i;
  }
}

TEST(Int8DeterminismTest, ThreadCountInvariant) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  auto model = MakeEvalModel();
  const auto samples = TestSlice(16);

  SetGlobalThreads(1);
  const auto serial = core::BatchMatchProbabilities(*model, samples);
  SetGlobalThreads(4);
  const auto threaded = core::BatchMatchProbabilities(*model, samples);

  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "sample " << i;
  }
}

TEST(Int8CacheTest, WeightCacheInvalidatedByOptimizerStepAndLoad) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  auto model = MakeEvalModel();
  const auto samples = TestSlice(2);

  const double p0 = core::MatchProbability(*model, samples[0]);
  const int64_t builds_cold = int8::WeightCacheBuilds();
  EXPECT_GT(builds_cold, 0) << "int8 path never built a weight cache";

  // Warm re-score: every cache slot hits, nothing rebuilds.
  const double p0_again = core::MatchProbability(*model, samples[0]);
  EXPECT_EQ(p0, p0_again);
  EXPECT_EQ(int8::WeightCacheBuilds(), builds_cold);

  // In-place parameter mutation + optimizer step (the production mutation
  // pattern: Step bumps the weight generation). The data pointers are
  // unchanged, so only the generation can catch this.
  for (auto& p : model->Parameters()) {
    p.mutable_value().MulScalarInPlace(1.25f);
  }
  nn::Sgd sgd(model->Parameters(), 0.1f);
  sgd.Step();  // no grads: weights untouched here, generation bumped
  const double p1 = core::MatchProbability(*model, samples[0]);
  const int64_t builds_after_step = int8::WeightCacheBuilds();
  EXPECT_GT(builds_after_step, builds_cold)
      << "stale quantized weights survived an optimizer step";
  EXPECT_NE(p0, p1) << "rescaled weights must change the score";

  // Checkpoint round-trip: LoadParameters replaces storage wholesale and
  // must also invalidate.
  const std::string path = ::testing::TempDir() + "/int8_cache_test.ckpt";
  ASSERT_TRUE(model->SaveParameters(path).ok());
  ASSERT_TRUE(model->LoadParameters(path).ok());
  const double p2 = core::MatchProbability(*model, samples[0]);
  EXPECT_GT(int8::WeightCacheBuilds(), builds_after_step);
  EXPECT_EQ(p1, p2) << "identical weights reloaded must rescore identically";
  EXPECT_GT(int8::WeightCacheBytes(), 0);
}

// Regression: Trainer's best-epoch RestoreParameters copy-assigns same-size
// tensors into the live parameters, and the allocator routinely hands the
// just-freed block straight back — so restored weights can land at the exact
// (pointer, size) an int8 cache recorded during the last mid-training eval.
// Before RestoreParameters bumped the weight generation, that cache passed
// its validity check and post-restore evals scored with quantized
// pre-restore weights (observed as the first Run() in a process scoring
// differently from every later one). Oracle: scoring right after Run() must
// be bit-identical to scoring after an explicit generation bump — a stale
// cache survives the former but never the latter.
TEST(Int8CacheTest, EvalAfterBestEpochRestoreUsesRestoredWeights) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  World& w = SharedWorld();
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;

  Rng rng(11);
  auto model = core::CreateModel("emba", budget,
                                 w.encoded.wordpiece->vocab().size(),
                                 w.encoded.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 3;
  config.min_epochs = 1;
  config.seed = 17;
  core::Trainer trainer(model->get(), &w.encoded, config);
  (void)trainer.Run();

  (*model)->SetTraining(false);
  const auto samples = TestSlice(8);
  std::vector<double> warm, rebuilt;
  for (const auto& s : samples) {
    warm.push_back(core::MatchProbability(**model, s));
  }
  int8::BumpWeightGeneration();  // force re-quantization of live weights
  for (const auto& s : samples) {
    rebuilt.push_back(core::MatchProbability(**model, s));
  }
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(warm[i], rebuilt[i])
        << "sample " << i
        << ": post-restore eval served stale quantized weights";
  }
}

TEST(Int8ArenaTest, TinyArenaHeapFallbackBitIdentical) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  auto model = MakeEvalModel();
  const auto samples = TestSlice(4);

  const auto reference = core::BatchMatchProbabilities(*model, samples);
  // 1 KiB arena: every activation and every int8 GEMM output falls back to
  // the heap, int8 scratch keeps using its thread-local buffers.
  ActivationArena::SetCapacityForTest(1024);
  const auto tiny = core::BatchMatchProbabilities(*model, samples);
  ActivationArena::SetCapacityForTest(0);  // restore default capacity

  ASSERT_EQ(reference.size(), tiny.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i], tiny[i]) << "sample " << i;
  }
}

TEST(Int8ArenaTest, SteadyStateScoringAllocatesNothing) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOn);
  auto model = MakeEvalModel();
  const auto samples = TestSlice(4);

  // Warmup: builds the weight caches, grows the thread-local quantization
  // scratch to its peak, touches every pooled inference node.
  for (int warm = 0; warm < 3; ++warm) {
    for (const auto& s : samples) core::MatchProbability(*model, s);
  }
  const int64_t heap_allocs = TensorHeapAllocCount();
  const int64_t builds = int8::WeightCacheBuilds();
  for (int rep = 0; rep < 5; ++rep) {
    for (const auto& s : samples) core::MatchProbability(*model, s);
  }
  EXPECT_EQ(TensorHeapAllocCount(), heap_allocs)
      << "warm int8 scoring allocated tensors on the heap";
  EXPECT_EQ(int8::WeightCacheBuilds(), builds)
      << "warm int8 scoring rebuilt weight caches";
}

// ---- zero-element tensor audit (satellite) ----

TEST(ZeroElementTest, EnsureHeapAndHeapCloneOnEmptyTensors) {
  for (const Shape& shape : {Shape({0}), Shape({0, 5}), Shape({3, 0})}) {
    Tensor t(shape);
    EXPECT_EQ(t.size(), 0);
    EXPECT_TRUE(t.OnHeap());
    t.EnsureHeap();  // must not dereference the null storage
    Tensor clone = t.HeapClone();
    EXPECT_EQ(clone.size(), 0);
    EXPECT_TRUE(clone.OnHeap());
    EXPECT_TRUE(clone.SameShape(t));
  }
}

TEST(ZeroElementTest, ArenaScopeDoesNotBumpOnEmptyTensors) {
  ActivationArena::Scope scope;
  const auto before = ActivationArena::ThreadStats();
  Tensor a(Shape({0, 8}));
  Tensor b(Shape({0}));
  b.EnsureHeap();
  Tensor c = a.HeapClone();
  const auto after = ActivationArena::ThreadStats();
  EXPECT_EQ(before.bytes_in_use, after.bytes_in_use)
      << "zero-element tensors must not consume arena bytes";
  EXPECT_EQ(before.heap_fallbacks, after.heap_fallbacks);
}

TEST(ZeroElementTest, EmptyBatchScoringIsANoOp) {
  Int8EnvGuard guard;
  auto model = MakeEvalModel();
  for (int8::Mode mode : {int8::Mode::kOff, int8::Mode::kOn}) {
    int8::SetRuntimeMode(mode);
    EXPECT_TRUE(core::BatchForward(*model, {}).empty());
    EXPECT_TRUE(core::BatchMatchProbabilities(*model, {}).empty());
  }
}

// ---- tolerance contract: end-to-end F1 parity (tier-1 gate) ----

TEST(Int8ToleranceTest, F1WithinContractOfFp32) {
  Int8EnvGuard guard;
  int8::SetRuntimeMode(int8::Mode::kOff);

  // Train a small model to genuine class separation; random-init logits
  // cluster near 0.5 where threshold flips are noise, not signal.
  data::GeneratorOptions options;
  options.seed = 33;
  options.size_factor = 1.0;
  auto dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
  core::EncodeOptions encode;
  encode.max_len = 32;
  encode.wordpiece_vocab = 600;
  auto encoded = core::EncodeDataset(dataset, encode);
  Rng rng(2);
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 32;
  auto model = core::CreateModel("emba", budget,
                                 encoded.wordpiece->vocab().size(),
                                 encoded.num_id_classes, &rng);
  ASSERT_TRUE(model.ok());
  core::TrainConfig config;
  config.max_epochs = 10;
  config.patience = 10;
  core::Trainer trainer(model->get(), &encoded, config);
  trainer.Run();
  (*model)->SetTraining(false);

  auto f1_at = [&](int8::Mode mode) {
    int8::SetRuntimeMode(mode);
    const auto probs = core::BatchMatchProbabilities(**model, encoded.test);
    std::vector<bool> y_true, y_pred;
    y_true.reserve(probs.size());
    y_pred.reserve(probs.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      y_true.push_back(encoded.test[i].match);
      y_pred.push_back(probs[i] > 0.5);
    }
    return core::ComputeBinaryMetrics(y_true, y_pred).f1;
  };

  const double f1_fp32 = f1_at(int8::Mode::kOff);
  const double f1_int8 = f1_at(int8::Mode::kOn);
  EXPECT_GT(f1_fp32, 0.3) << "training failed; parity check meaningless";
  EXPECT_NEAR(f1_int8, f1_fp32, 0.005)
      << "int8 F1 drifted outside the tolerance contract";
}

}  // namespace
}  // namespace emba
