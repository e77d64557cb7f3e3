// Tier-1 tests for the inference fast path (ag::InferenceModeGuard) and the
// thread-local activation arena (ActivationArena):
//   - the hard contract: inference-mode scores are bit-identical to a
//     grad-mode forward, across model shapes, thread counts, the scalar
//     kernel backend, tiny-arena heap fallback, and the arena force-off path
//   - the steady-state zero-allocation guarantee: a warm scoring loop
//     creates no tensors on the heap and no new pooled inference nodes
//   - guard rails: training primitives abort loudly under an active
//     inference scope, and training works normally once the scope ends
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "autograd/var.h"
#include "core/registry.h"
#include "core/sample.h"
#include "core/scoring.h"
#include "data/generator.h"
#include "tensor/arena.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace emba {
namespace {

// Every test here asserts BIT-IDENTITY between inference-mode and grad-mode
// forwards. The int8 path is deterministic but intentionally not fp32-exact
// (tolerance contract, DESIGN.md §14), so it must stay off even when the
// suite is run under EMBA_INT8=on — int8 behavior has its own suite
// (int8_test.cc).
class ForceInt8Off : public ::testing::Environment {
 public:
  void SetUp() override { int8::SetRuntimeMode(int8::Mode::kOff); }
  void TearDown() override { int8::ResetMode(); }
};
const auto* const kForceInt8Off =
    ::testing::AddGlobalTestEnvironment(new ForceInt8Off);

// One encoded dataset shared by every model; per-model worlds differ only in
// the model itself. Small shapes keep the suite fast while still exercising
// multi-head attention, AOA pooling and the aux heads.
struct World {
  data::EmDataset dataset;
  core::EncodedDataset plain;
  core::EncodedDataset ditto;
  std::unique_ptr<Rng> rng;
};

World& SharedWorld() {
  static World* world = [] {
    auto* w = new World();
    data::GeneratorOptions options;
    options.seed = 17;
    options.size_factor = 0.3;
    w->dataset = data::MakeWdc(data::WdcCategory::kComputers,
                               data::WdcSize::kSmall, options);
    core::EncodeOptions encode;
    encode.max_len = 24;
    encode.wordpiece_vocab = 400;
    w->plain = core::EncodeDataset(w->dataset, encode);
    encode.style = core::InputStyle::kDitto;
    w->ditto = core::EncodeDataset(w->dataset, encode);
    w->rng = std::make_unique<Rng>(5);
    return w;
  }();
  return *world;
}

std::unique_ptr<core::EmModel> MakeEvalModel(const std::string& name) {
  World& w = SharedWorld();
  const core::EncodedDataset& encoded =
      core::ModelUsesDittoInput(name) ? w.ditto : w.plain;
  core::ModelBudget budget;
  budget.dim = 16;
  budget.layers = 1;
  budget.heads = 2;
  budget.max_len = 24;
  auto model = core::CreateModel(name, budget,
                                 encoded.wordpiece->vocab().size(),
                                 encoded.num_id_classes, w.rng.get());
  EMBA_CHECK(model.ok());
  (*model)->SetTraining(false);
  return std::move(*model);
}

const std::vector<core::PairSample>& SamplesFor(const std::string& name) {
  World& w = SharedWorld();
  return core::ModelUsesDittoInput(name) ? w.ditto.test : w.plain.test;
}

void ExpectTensorBitEqual(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

// Grad-mode reference forward (gradient recording left ON, so the op layer
// takes the full MakeResult path) for one sample.
core::ModelOutput GradModeForward(const core::EmModel& model,
                                  const core::PairSample& sample) {
  EXPECT_TRUE(ag::GradEnabled());
  return model.Forward(sample);
}

TEST(InferenceFastPath, BitIdenticalToGradModeAcrossModelShapes) {
  // Covers every em-head variant: AOA + aux heads (emba), plain [CLS]
  // (bert), [CLS] + aux heads (jointbert), and DITTO-serialized input.
  for (const std::string& name : {"emba", "bert", "jointbert", "ditto"}) {
    auto model = MakeEvalModel(name);
    const auto& samples = SamplesFor(name);
    const size_t n = std::min<size_t>(samples.size(), 6);
    for (size_t i = 0; i < n; ++i) {
      const core::ModelOutput reference = GradModeForward(*model, samples[i]);
      ag::InferenceModeGuard inference;
      ActivationArena::Scope arena;
      const core::ModelOutput fast = model->Forward(samples[i]);
      ASSERT_TRUE(fast.em_logits.is_inference());
      ExpectTensorBitEqual(fast.em_logits.value(),
                           reference.em_logits.value());
      ASSERT_EQ(fast.id1_logits.defined(), reference.id1_logits.defined())
          << name;
      if (fast.id1_logits.defined()) {
        ExpectTensorBitEqual(fast.id1_logits.value(),
                             reference.id1_logits.value());
        ExpectTensorBitEqual(fast.id2_logits.value(),
                             reference.id2_logits.value());
      }
    }
  }
}

TEST(InferenceFastPath, MatchProbabilityEqualsSoftmaxReference) {
  auto model = MakeEvalModel("emba");
  const auto& samples = SamplesFor("emba");
  const size_t n = std::min<size_t>(samples.size(), 8);
  for (size_t i = 0; i < n; ++i) {
    const core::ModelOutput reference = GradModeForward(*model, samples[i]);
    Tensor probs = SoftmaxRows(reference.em_logits.value());
    const double expected = probs[1];
    EXPECT_EQ(core::MatchProbability(*model, samples[i]), expected);
    EXPECT_EQ(core::MatchProbabilityFromLogits(reference.em_logits.value()),
              expected);
  }
}

TEST(InferenceFastPath, BatchedProbabilitiesBitIdenticalAcrossThreadCounts) {
  auto model = MakeEvalModel("emba");
  const auto& all = SamplesFor("emba");
  std::vector<core::PairSample> samples(
      all.begin(), all.begin() + std::min<size_t>(all.size(), 12));

  SetGlobalThreads(1);
  const std::vector<double> serial =
      core::BatchMatchProbabilities(*model, samples);
  SetGlobalThreads(4);
  const std::vector<double> parallel =
      core::BatchMatchProbabilities(*model, samples);
  SetGlobalThreads(0);  // restore default

  ASSERT_EQ(serial.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sample " << i;
    EXPECT_EQ(serial[i], core::MatchProbability(*model, samples[i]))
        << "sample " << i;
  }
}

TEST(InferenceFastPath, BitIdenticalOnScalarBackend) {
  kernels::ForceBackend(kernels::Backend::kScalar);
  auto model = MakeEvalModel("emba");
  const auto& samples = SamplesFor("emba");
  const size_t n = std::min<size_t>(samples.size(), 4);
  for (size_t i = 0; i < n; ++i) {
    const core::ModelOutput reference = GradModeForward(*model, samples[i]);
    Tensor probs = SoftmaxRows(reference.em_logits.value());
    EXPECT_EQ(core::MatchProbability(*model, samples[i]),
              static_cast<double>(probs[1]));
  }
  kernels::ResetBackend();
}

TEST(InferenceFastPath, BatchForwardOutputsAreHeapBackedAndBitIdentical) {
  auto model = MakeEvalModel("jointbert");
  const auto& all = SamplesFor("jointbert");
  std::vector<core::PairSample> samples(
      all.begin(), all.begin() + std::min<size_t>(all.size(), 6));
  const std::vector<core::ModelOutput> batched =
      core::BatchForward(*model, samples);
  ASSERT_EQ(batched.size(), samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    // Escaped outputs must survive the arena reset: heap-backed, not
    // inference-pooled, and readable after the batch returns.
    ASSERT_FALSE(batched[i].em_logits.is_inference());
    ASSERT_TRUE(batched[i].em_logits.value().OnHeap());
    const core::ModelOutput reference = GradModeForward(*model, samples[i]);
    ExpectTensorBitEqual(batched[i].em_logits.value(),
                         reference.em_logits.value());
  }
}

TEST(InferenceFastPath, SteadyStateScoringAllocatesNothing) {
  auto model = MakeEvalModel("emba");
  const auto& samples = SamplesFor("emba");
  ASSERT_GE(samples.size(), 4u);

  // Warm-up: grows the arena high water and the inference-node pool to this
  // workload's peak.
  for (int i = 0; i < 8; ++i) {
    core::MatchProbability(*model, samples[i % samples.size()]);
  }

  const int64_t heap_before = TensorHeapAllocCount();
  const int64_t nodes_before = ag::InferenceNodesCreated();
  const ActivationArena::Stats before = ActivationArena::ThreadStats();

  constexpr int kIters = 32;
  double acc = 0.0;
  for (int i = 0; i < kIters; ++i) {
    acc += core::MatchProbability(*model, samples[i % samples.size()]);
  }
  ASSERT_GE(acc, 0.0);

  const ActivationArena::Stats after = ActivationArena::ThreadStats();
  // Zero per-intermediate-tensor mallocs and zero VarNode/pool growth on the
  // warm path — the tentpole's acceptance assertion.
  EXPECT_EQ(TensorHeapAllocCount(), heap_before);
  EXPECT_EQ(ag::InferenceNodesCreated(), nodes_before);
  EXPECT_EQ(after.resets, before.resets + kIters);
  EXPECT_EQ(after.heap_fallbacks, before.heap_fallbacks);
  EXPECT_GT(after.high_water_bytes, 0);
}

TEST(InferenceFastPath, HeapFallbackOnTinyArenaStaysBitIdentical) {
  auto model = MakeEvalModel("emba");
  const core::PairSample& sample = SamplesFor("emba")[0];
  const double reference = core::MatchProbability(*model, sample);

  // 1 KiB cannot hold a forward pass; every allocation past the first few
  // falls back to the heap mid-sample and the score must not change.
  ActivationArena::SetCapacityForTest(1024);
  const ActivationArena::Stats before = ActivationArena::ThreadStats();
  const double constrained = core::MatchProbability(*model, sample);
  const ActivationArena::Stats after = ActivationArena::ThreadStats();
  ActivationArena::SetCapacityForTest(0);

  EXPECT_EQ(constrained, reference);
  EXPECT_GT(after.heap_fallbacks, before.heap_fallbacks);
}

TEST(InferenceFastPath, ForceDisabledArenaStaysBitIdentical) {
  auto model = MakeEvalModel("emba");
  const core::PairSample& sample = SamplesFor("emba")[0];
  const double reference = core::MatchProbability(*model, sample);
  ActivationArena::ForceDisabledForTest(true);
  const double heap_scored = core::MatchProbability(*model, sample);
  ActivationArena::ForceDisabledForTest(false);
  EXPECT_EQ(heap_scored, reference);
}

// ---- guard rails ----

TEST(InferenceGuardDeathTest, ParameterCreationUnderInferenceScopeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ag::InferenceModeGuard inference;
        ag::Parameter(Tensor::Zeros({2, 2}));
      },
      "Parameter\\(\\) under inference mode");
}

TEST(InferenceGuardDeathTest, BackwardUnderInferenceScopeDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ag::Var w = ag::Parameter(Tensor::Ones({2}));
        ag::Var loss = ag::Dot(w, w);
        ag::InferenceModeGuard inference;
        loss.Backward();
      },
      "Backward under inference mode");
}

TEST(InferenceGuardDeathTest, InferenceVarCannotJoinAutogradGraph) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ag::Var leaked;
        {
          ag::InferenceModeGuard inference;
          leaked = ag::Var(Tensor::Ones({2}));
        }
        // Outside the scope grad recording is back on; linking the leaked
        // inference Var into a graph must abort, not corrupt the graph.
        ag::Var w = ag::Parameter(Tensor::Ones({2}));
        ag::Dot(leaked, w);
      },
      "node\\(\\) on an inference-mode Var");
}

TEST(InferenceFastPath, TrainingWorksAfterInferenceScopeEnds) {
  {
    ag::InferenceModeGuard inference;
    ActivationArena::Scope arena;
    ag::Var a(Tensor::Full({3}, 2.0f));
    ag::Var b = ag::Scale(a, 3.0f);
    EXPECT_TRUE(b.is_inference());
    EXPECT_EQ(b.value()[0], 6.0f);
  }
  // Back to normal: parameters, graphs and gradients all work.
  EXPECT_TRUE(ag::GradEnabled());
  ag::Var w = ag::Parameter(Tensor::Full({2}, 3.0f));
  ag::Var loss = ag::Dot(w, w);
  loss.Backward();
  EXPECT_EQ(loss.item(), 18.0f);
  EXPECT_EQ(w.grad()[0], 6.0f);  // d(w·w)/dw = 2w
}

}  // namespace
}  // namespace emba
