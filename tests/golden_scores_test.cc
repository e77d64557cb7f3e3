// Golden scores: fixed-seed models score a fixed generated pair set to the
// same bits on every build, kernel backend and thread count.
//
// Refactors promise bit-identical scores; this test is what makes the
// promise checkable. Each case hashes the IEEE bits of every P(match) with
// FNV-1a and compares against a committed constant:
//   - untrained EMBA, JointBERT and DITTO (the forward pass of three head
//     and input-style variants)
//   - EMBA after one training epoch (backward, clipping and Adam)
// each in fp32 and in int8 (set explicitly, so EMBA_INT8 in the environment
// does not matter), at 1 and at 4 threads.
//
// A hash here changes only in a change that says why in CHANGES.md. A
// failure prints the new hash; do not paste it in without that reason.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/sample.h"
#include "core/scoring.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "tensor/int8.h"
#include "util/thread_pool.h"

namespace emba {
namespace {

// fp32 and int8 golden hashes of one model's test-split scores.
struct Golden {
  const char* model;
  uint64_t fp32;
  uint64_t int8;
};

constexpr Golden kUntrained[] = {
    {"emba", 0x586d5c07a094284eULL, 0xea28edee81a6a5adULL},
    {"jointbert", 0x29dfe8b65edec98aULL, 0x48c0ca047803ce88ULL},
    {"ditto", 0x580c84b5a4702ba5ULL, 0xc63c05f576473d46ULL},
};
constexpr Golden kEmbaOneEpoch = {"emba", 0x656f0bd4edf1dcd4ULL,
                                   0x17e40a38dd0cfdb5ULL};

constexpr int kThreadCounts[] = {1, 4};

struct World {
  core::EncodedDataset plain;
  core::EncodedDataset ditto;
};

const World& SharedWorld() {
  static const World* world = [] {
    auto* w = new World();
    data::GeneratorOptions options;
    options.seed = 23;
    options.size_factor = 0.5;
    const data::EmDataset dataset = data::MakeWdc(
        data::WdcCategory::kComputers, data::WdcSize::kSmall, options);
    core::EncodeOptions encode;
    w->plain = core::EncodeDataset(dataset, encode);
    encode.style = core::InputStyle::kDitto;
    w->ditto = core::EncodeDataset(dataset, encode);
    return w;
  }();
  return *world;
}

const core::EncodedDataset& EncodingFor(const std::string& name) {
  return core::ModelUsesDittoInput(name) ? SharedWorld().ditto
                                         : SharedWorld().plain;
}

// A fresh model of `name` from seed 7. The Rng must outlive the model.
struct SeededModel {
  std::unique_ptr<Rng> rng = std::make_unique<Rng>(7);
  std::unique_ptr<core::EmModel> model;
};

SeededModel MakeModel(const std::string& name) {
  const core::EncodedDataset& encoded = EncodingFor(name);
  core::ModelBudget budget;
  budget.dim = 32;
  budget.layers = 2;
  SeededModel seeded;
  auto model = core::CreateModel(name, budget,
                                 encoded.wordpiece->vocab().size(),
                                 encoded.num_id_classes, seeded.rng.get());
  EMBA_CHECK(model.ok());
  seeded.model = std::move(*model);
  return seeded;
}

void TrainOneEpoch(core::EmModel* model, const core::EncodedDataset& data) {
  core::TrainConfig config;
  config.max_epochs = 1;
  config.min_epochs = 1;
  config.seed = 7;
  core::Trainer trainer(model, &data, config);
  trainer.Run();
}

uint64_t Fnv1a(const std::vector<double>& scores) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (double score : scores) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &score, sizeof(double));
    for (unsigned char byte : bytes) {
      hash ^= byte;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

std::string Hex(uint64_t hash) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, hash);
  return buf;
}

uint64_t ScoreHash(const core::EmModel& model, const std::string& name,
                   int8::Mode mode) {
  int8::SetRuntimeMode(mode);
  const std::vector<double> scores =
      core::BatchMatchProbabilities(model, EncodingFor(name).test);
  EMBA_CHECK(!scores.empty());
  return Fnv1a(scores);
}

void ExpectGolden(const core::EmModel& model, const Golden& golden,
                  const std::string& where) {
  const uint64_t fp32 = ScoreHash(model, golden.model, int8::Mode::kOff);
  const uint64_t int8 = ScoreHash(model, golden.model, int8::Mode::kOn);
  EXPECT_EQ(Hex(fp32), Hex(golden.fp32)) << where << " fp32";
  EXPECT_EQ(Hex(int8), Hex(golden.int8)) << where << " int8";
}

class GoldenScoresTest : public ::testing::Test {
 protected:
  void TearDown() override {
    int8::ResetMode();
    SetGlobalThreads(0);
  }
};

TEST_F(GoldenScoresTest, UntrainedModelsScoreGoldenBits) {
  for (int threads : kThreadCounts) {
    SetGlobalThreads(threads);
    for (const Golden& golden : kUntrained) {
      SeededModel seeded = MakeModel(golden.model);
      seeded.model->SetTraining(false);
      ExpectGolden(*seeded.model, golden,
                   std::string(golden.model) + " at " +
                       std::to_string(threads) + " threads");
    }
  }
}

TEST_F(GoldenScoresTest, EmbaAfterOneEpochScoresGoldenBits) {
  for (int threads : kThreadCounts) {
    SetGlobalThreads(threads);
    SeededModel seeded = MakeModel("emba");
    int8::SetRuntimeMode(int8::Mode::kOff);
    TrainOneEpoch(seeded.model.get(), SharedWorld().plain);
    seeded.model->SetTraining(false);
    ExpectGolden(*seeded.model, kEmbaOneEpoch,
                 "trained emba at " + std::to_string(threads) + " threads");
  }
}

}  // namespace
}  // namespace emba
