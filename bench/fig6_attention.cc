// Figure 6 reproduction: attention-score visualization per word for
// JointBERT and EMBA on the case-study pair. Paper shape: JointBERT's
// attention concentrates on contextually shared words ("compactflash"),
// while EMBA boosts the brand ("sandisk"/"transcend") and model-number
// tokens that decide the non-match.
#include <cstdio>

#include "bench/harness.h"
#include "explain/attention_report.h"

namespace {

double ScoreOf(const emba::explain::AttentionReport& report,
               const std::string& word) {
  for (const auto& entry : report.words) {
    if (entry.word == word) return entry.score;
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace emba;
  BenchScale scale = GetBenchScale();
  bench::DatasetCache cache(scale);
  const core::EncodedDataset& dataset =
      cache.Get("wdc_computers_medium", core::InputStyle::kPlain);

  data::LabeledPair pair = data::CaseStudyPair();
  std::printf("=== Figure 6: attention visualization (ground truth: "
              "non-match) ===\n");

  // Identity tokens decide the non-match; shared spec tokens drown them.
  const std::vector<std::string> kIdentity = {"sandisk", "transcend",
                                              "sdcfh-004g-a11", "ts4gcf300"};
  const std::vector<std::string> kShared = {"4gb",  "50p",  "cf",
                                            "compactflash", "card", "retail"};
  double emba_brand_ratio = 0.0, jointbert_brand_ratio = 0.0;
  for (const char* name : {"jointbert", "emba"}) {
    Rng rng(37);
    auto model = core::CreateModel(name, bench::BudgetFromScale(scale),
                                   dataset.wordpiece->vocab().size(),
                                   dataset.num_id_classes, &rng);
    EMBA_CHECK(model.ok());
    core::TrainConfig config = bench::TrainConfigFromScale(scale, 37);
    config.max_epochs = 10;  // the case-study models must be well-trained
    core::Trainer trainer(model->get(), &dataset, config);
    core::TrainResult result = trainer.Run();
    explain::AttentionReport report =
        explain::ComputeWordAttention(model->get(), dataset, pair);
    std::printf("\n===== %s (test F1 %.2f) =====\n%s", name,
                result.test.em.f1 * 100.0,
                explain::RenderAttention(report).c_str());
    double identity = 0.0, shared = 0.0;
    for (const auto& w : kIdentity) identity += ScoreOf(report, w);
    for (const auto& w : kShared) shared += 2.0 * ScoreOf(report, w);
    identity /= static_cast<double>(kIdentity.size());
    shared /= static_cast<double>(2 * kShared.size());
    const double ratio = shared > 0.0 ? identity / shared : 0.0;
    if (std::string(name) == "emba") emba_brand_ratio = ratio;
    else jointbert_brand_ratio = ratio;
  }
  std::printf("\nShape check vs. paper Fig. 6: identity-token (brand + "
              "model number) vs shared-spec-token attention — EMBA %.2fx vs "
              "JointBERT %.2fx (paper: JointBERT concentrates on the shared "
              "'compactflash'-style tokens while EMBA enhances the brand "
              "and model-number scores).\n",
              emba_brand_ratio, jointbert_brand_ratio);
  return 0;
}
