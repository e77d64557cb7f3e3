#include "bench/harness.h"

#include <cstdio>

#include "util/env.h"
#include "util/trace.h"

namespace emba {
namespace bench {

namespace {

// EMBA_BENCH_ROWS=a,b,c overrides a bench's row set (spot checks / CI);
// empty when unset.
std::vector<std::string> RowsFromEnv() {
  std::vector<std::string> rows;
  if (auto list = env::ReadString(env::Knob::kBenchRows)) {
    for (auto& name : Split(*list, ',')) {
      if (!name.empty()) rows.push_back(name);
    }
  }
  return rows;
}

}  // namespace

std::vector<std::string> TableDatasetRows(const BenchScale& scale) {
  if (auto rows = RowsFromEnv(); !rows.empty()) return rows;
  if (scale.full) {
    return data::AllDatasetNames();  // all 16 WDC rows + 6 benchmarks
  }
  // Quick mode: the two ends of the WDC computers size ladder plus three
  // non-WDC benchmarks covering each statistical regime of Table 1
  // (moderate-LRID products, high-LRID citations, tiny Magellan data).
  return {"wdc_computers_small", "wdc_computers_xlarge", "abt_buy",
          "dblp_scholar", "books"};
}

std::vector<std::string> AblationDatasetRows(const BenchScale& scale) {
  if (auto rows = RowsFromEnv(); !rows.empty()) return rows;
  if (scale.full) return data::AllDatasetNames();
  return {"wdc_computers_small", "wdc_computers_xlarge", "abt_buy",
          "books"};
}

const core::EncodedDataset& DatasetCache::Get(const std::string& name,
                                              core::InputStyle style) {
  auto key = std::make_pair(name, static_cast<int>(style));
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  data::GeneratorOptions options;
  options.seed = 42;
  options.size_factor = scale_.size_factor;
  auto dataset = data::MakeByName(name, options);
  EMBA_CHECK_MSG(dataset.ok(), dataset.status().ToString());

  core::EncodeOptions encode_options;
  encode_options.max_len = scale_.max_len;
  encode_options.wordpiece_vocab = scale_.full ? 2400 : 1200;
  encode_options.style = style;
  encode_options.max_words_per_entity = scale_.max_len / 2;
  auto [inserted, ok] =
      cache_.emplace(key, core::EncodeDataset(*dataset, encode_options));
  return inserted->second;
}

core::ModelBudget BudgetFromScale(const BenchScale& scale) {
  core::ModelBudget budget;
  budget.dim = scale.hidden_dim;
  budget.layers = scale.layers;
  budget.heads = scale.heads;
  budget.max_len = scale.max_len;
  return budget;
}

core::TrainConfig TrainConfigFromScale(const BenchScale& scale,
                                       uint64_t seed) {
  core::TrainConfig config;
  config.max_epochs = scale.epochs;
  config.patience = scale.full ? 4 : 3;
  config.seed = seed;
  return config;
}

core::TrainResult TrainOnce(DatasetCache* cache,
                            const std::string& dataset_name,
                            const std::string& model_name, uint64_t seed) {
  // The string args go through InternString: SpanArg values must outlive
  // the ring buffer, and model/dataset names repeat across seeds so the
  // pool stays tiny.
  EMBA_TRACE_SPAN_ARGS("bench/train_once", {"seed", seed},
                       {"model", trace::InternString(model_name)},
                       {"dataset", trace::InternString(dataset_name)});
  const core::InputStyle style = core::ModelUsesDittoInput(model_name)
                                     ? core::InputStyle::kDitto
                                     : core::InputStyle::kPlain;
  const core::EncodedDataset& dataset = cache->Get(dataset_name, style);
  Rng rng(seed * 7919 + 13);
  auto model = core::CreateModel(model_name, BudgetFromScale(cache->scale()),
                                 dataset.wordpiece->vocab().size(),
                                 dataset.num_id_classes, &rng);
  EMBA_CHECK_MSG(model.ok(), model.status().ToString());
  core::TrainConfig config = TrainConfigFromScale(cache->scale(), seed);
  config.learning_rate = core::DefaultLearningRate(model_name);
  // Epoch budget adapts to the split size: large tiers converge in fewer
  // passes, and this keeps the whole suite CPU-tractable. Announced here
  // once per run via the config, never silently.
  const int64_t train_size = static_cast<int64_t>(dataset.train.size());
  const int adaptive = static_cast<int>(14000 / std::max<int64_t>(train_size, 1));
  config.max_epochs =
      std::max(5, std::min(config.max_epochs + 4, adaptive));
  core::Trainer trainer(model->get(), &dataset, config);
  return trainer.Run();
}

SeededRun TrainSeeds(DatasetCache* cache, const std::string& dataset_name,
                     const std::string& model_name, int seeds) {
  SeededRun run;
  for (int s = 0; s < seeds; ++s) {
    run.last = TrainOnce(cache, dataset_name, model_name,
                         static_cast<uint64_t>(s + 1));
    run.f1_percent.push_back(run.last.test.em.f1 * 100.0);
  }
  return run;
}

TablePrinter::TablePrinter(std::vector<std::string> columns)
    : columns_(std::move(columns)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  EMBA_CHECK_MSG(cells.size() == columns_.size(), "row arity mismatch");
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string MeanStdCell(const std::vector<double>& values) {
  if (values.size() < 2) {
    return FormatFixed(values.empty() ? 0.0 : values[0], 2);
  }
  return FormatFixed(core::Mean(values), 2) + "(±" +
         FormatFixed(core::StdDev(values), 2) + ")";
}

}  // namespace bench
}  // namespace emba
