#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <unordered_set>

#include "core/scoring.h"
#include "nn/checkpoint.h"
#include "tensor/int8.h"
#include "nn/optimizer.h"
#include "train_obs/train_obs.h"
#include "util/atomic_file.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/serialize.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace emba {
namespace core {
namespace {

int PredictBinary(const Tensor& logits) { return logits[1] > logits[0]; }

int PredictClass(const Tensor& logits) {
  return static_cast<int>(logits.ArgMaxAll());
}

// Snapshot / restore of parameter values for best-epoch weight restoration.
std::vector<Tensor> SnapshotParameters(const std::vector<ag::Var>& params) {
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(p.value());
  return out;
}

void RestoreParameters(std::vector<ag::Var>* params,
                       const std::vector<Tensor>& snapshot) {
  EMBA_CHECK_MSG(params->size() == snapshot.size(), "snapshot size mismatch");
  for (size_t i = 0; i < params->size(); ++i) {
    (*params)[i].mutable_value() = snapshot[i];
  }
  // Tensor copy-assignment frees and reallocates same-size storage, so the
  // allocator frequently hands back the identical pointer; without a
  // generation bump the int8 quantized-weight caches built during the last
  // mid-training eval would pass their (pointer, size, generation) validity
  // check and serve quantized pre-restore weights to the final eval.
  int8::BumpWeightGeneration();
}

// ---- Trainer checkpoints (resume-to-bit-identical-trajectory) ----
//
// One v2 checkpoint file holds everything the training loop depends on:
//   model.<param>   current parameter tensors
//   best.<i>        best-validation-F1 parameter snapshot
//   opt.{m.,v.,t}   Adam moments and step count
//   trainer/rng     the shuffle Rng's stream position
//   model/rng       the model's dropout Rng (when the caller provided it)
//   trainer/state   epoch counters, best F1, patience, loss/F1 histories,
//                   and the in-place sample-order permutation
// Restoring all of them resumes training exactly where the interrupted run
// left off; the resumed trajectory is bit-identical because every source of
// state (weights, moments, both RNG streams, schedules keyed on the step
// counter) is reproduced.

constexpr uint32_t kTrainerStateVersion = 1;
constexpr uint64_t kMaxHistoryLen = 1ull << 20;

struct ResumeState {
  int64_t next_epoch = 0;
  int64_t global_step = 0;
  int64_t trained_pairs = 0;
  double best_valid_f1 = -1.0;
  int64_t epochs_since_improvement = 0;
  std::vector<double> epoch_train_loss;
  std::vector<double> epoch_valid_f1;
  // The sample-order permutation at the checkpoint boundary. Shuffling is
  // in-place, so epoch k shuffles the permutation epoch k-1 left behind —
  // a resumed run that started from the identity permutation would draw
  // the same RNG stream over a *different* array and diverge.
  std::vector<size_t> order;
};

void PutHistory(ByteWriter* writer, const std::vector<double>& history) {
  writer->PutU64(history.size());
  for (double v : history) writer->PutF64(v);
}

Status GetHistory(ByteReader* reader, std::vector<double>* history) {
  uint64_t len = 0;
  EMBA_RETURN_NOT_OK(reader->GetU64(&len));
  if (len > kMaxHistoryLen) {
    return Status::Invalid("trainer state history implausibly long");
  }
  history->resize(len);
  for (auto& v : *history) EMBA_RETURN_NOT_OK(reader->GetF64(&v));
  return Status::OK();
}

/// Versioned sibling written beside the resume anchor on every save:
/// `<path>.e<epoch, zero-padded>`. The fixed width keeps lexicographic and
/// numeric order identical for any realistic epoch count.
std::string VersionedCheckpointPath(const std::string& path, int64_t epoch) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".e%05lld",
                static_cast<long long>(epoch));
  return path + suffix;
}

/// Keep-last-K rotation: deletes versioned siblings of `path` beyond the
/// newest `keep_last`. Runs only after a successful atomic publish, so the
/// rotation can never leave the run without a complete checkpoint; deletion
/// failures are logged, never fatal (a stale version is waste, not
/// corruption).
void RotateCheckpoints(const std::string& path, int keep_last) {
  if (keep_last <= 0) return;
  namespace fs = std::filesystem;
  const fs::path anchor(path);
  const std::string prefix = anchor.filename().string() + ".e";
  fs::path dir = anchor.parent_path();
  if (dir.empty()) dir = ".";
  std::vector<std::pair<long long, fs::path>> versions;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    versions.emplace_back(std::stoll(digits), it->path());
  }
  if (ec) {
    EMBA_LOG(WARN) << "checkpoint rotation: cannot scan " << dir.string()
                   << ": " << ec.message();
    return;
  }
  if (versions.size() <= static_cast<size_t>(keep_last)) return;
  std::sort(versions.begin(), versions.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (size_t i = static_cast<size_t>(keep_last); i < versions.size(); ++i) {
    std::error_code remove_ec;
    fs::remove(versions[i].second, remove_ec);
    if (remove_ec) {
      EMBA_LOG(WARN) << "checkpoint rotation: cannot delete "
                     << versions[i].second.string() << ": "
                     << remove_ec.message();
    } else {
      metrics::GetCounter("trainer.checkpoints_rotated").Increment();
    }
  }
}

Status SaveTrainerCheckpoint(const std::string& path, int keep_last,
                             const EmModel& model,
                             const nn::Optimizer& optimizer, const Rng& rng,
                             const Rng* dropout_rng,
                             const std::vector<Tensor>& best_snapshot,
                             const ResumeState& state, int64_t* bytes_out) {
  nn::CheckpointWriter writer;
  for (const auto& [name, var] : model.NamedParameters()) {
    writer.AddTensor("model." + name, var.value());
  }
  for (size_t i = 0; i < best_snapshot.size(); ++i) {
    writer.AddTensor("best." + std::to_string(i), best_snapshot[i]);
  }
  optimizer.SaveState(&writer, "opt.");
  writer.AddBytes("trainer/rng", rng.SaveState());
  if (dropout_rng != nullptr) {
    writer.AddBytes("model/rng", dropout_rng->SaveState());
  }
  ByteWriter scalars;
  scalars.PutU32(kTrainerStateVersion);
  scalars.PutI64(state.next_epoch);
  scalars.PutI64(state.global_step);
  scalars.PutI64(state.trained_pairs);
  scalars.PutF64(state.best_valid_f1);
  scalars.PutI64(state.epochs_since_improvement);
  PutHistory(&scalars, state.epoch_train_loss);
  PutHistory(&scalars, state.epoch_valid_f1);
  scalars.PutU64(state.order.size());
  for (size_t v : state.order) scalars.PutU64(v);
  writer.AddBytes("trainer/state", scalars.Release());

  // One serialization feeds both the resume anchor and its versioned
  // sibling; the anchor publishes first so a crash between the two writes
  // still leaves a resumable latest checkpoint.
  const std::string image = writer.Serialize();
  EMBA_RETURN_NOT_OK(WriteFileAtomic(path, image));
  EMBA_RETURN_NOT_OK(
      WriteFileAtomic(VersionedCheckpointPath(path, state.next_epoch), image));
  RotateCheckpoints(path, keep_last);
  // Both files carry the same image, so bytes-on-disk is 2× the
  // serialization (rotation reclaims old versions separately).
  static metrics::Counter& writes_counter =
      metrics::GetCounter("training.checkpoint.writes");
  static metrics::Counter& bytes_counter =
      metrics::GetCounter("training.checkpoint.bytes");
  const int64_t bytes = static_cast<int64_t>(image.size()) * 2;
  writes_counter.Increment();
  bytes_counter.Increment(static_cast<uint64_t>(bytes));
  if (bytes_out != nullptr) *bytes_out = bytes;
  return Status::OK();
}

Status LoadTrainerCheckpoint(const std::string& path, EmModel* model,
                             nn::Optimizer* optimizer, Rng* rng,
                             Rng* dropout_rng, size_t train_size,
                             std::vector<Tensor>* best_snapshot,
                             ResumeState* state) {
  EMBA_TRACE_SPAN_ARGS("trainer/checkpoint_load",
                       {"path", trace::InternString(path)});
  auto reader = nn::CheckpointReader::Open(path);
  if (!reader.ok()) return reader.status();

  // Model parameters: all present, shapes matching, no strays.
  auto named = model->NamedParameters();
  std::unordered_set<std::string> matched;
  for (auto& [name, var] : named) {
    const Tensor* t = reader->FindTensor("model." + name);
    if (t == nullptr) {
      return Status::NotFound("checkpoint missing parameter: " + name);
    }
    if (!(t->shape() == var.value().shape())) {
      return Status::Invalid("checkpoint parameter shape mismatch: " + name);
    }
    matched.insert("model." + name);
  }
  for (const auto& section : reader->TensorNames()) {
    if (section.rfind("model.", 0) == 0 && !matched.count(section)) {
      return Status::Invalid("checkpoint entry matches no model parameter: " +
                             section);
    }
  }

  // Best-validation snapshot: one tensor per parameter, same shapes.
  std::vector<Tensor> best;
  best.reserve(named.size());
  for (size_t i = 0; i < named.size(); ++i) {
    const Tensor* t = reader->FindTensor("best." + std::to_string(i));
    if (t == nullptr) {
      return Status::NotFound("checkpoint missing best-snapshot tensor " +
                              std::to_string(i));
    }
    if (!(t->shape() == named[i].second.value().shape())) {
      return Status::Invalid("best-snapshot shape mismatch at index " +
                             std::to_string(i));
    }
    best.push_back(*t);
  }

  const std::string* rng_bytes = reader->FindBytes("trainer/rng");
  if (rng_bytes == nullptr) {
    return Status::NotFound("checkpoint missing trainer/rng");
  }
  const std::string* model_rng_bytes = reader->FindBytes("model/rng");
  if (dropout_rng != nullptr && model_rng_bytes == nullptr) {
    return Status::NotFound(
        "checkpoint has no model/rng section but the run expects one "
        "(config.dropout_rng is set)");
  }
  if (dropout_rng == nullptr && model_rng_bytes != nullptr) {
    return Status::FailedPrecondition(
        "checkpoint carries a model/rng section but config.dropout_rng is "
        "unset — resuming would diverge from the original trajectory");
  }

  const std::string* scalars = reader->FindBytes("trainer/state");
  if (scalars == nullptr) {
    return Status::NotFound("checkpoint missing trainer/state");
  }
  ByteReader scalar_reader(*scalars);
  uint32_t version = 0;
  EMBA_RETURN_NOT_OK(scalar_reader.GetU32(&version));
  if (version != kTrainerStateVersion) {
    return Status::Invalid("unsupported trainer state version " +
                           std::to_string(version));
  }
  ResumeState loaded;
  EMBA_RETURN_NOT_OK(scalar_reader.GetI64(&loaded.next_epoch));
  EMBA_RETURN_NOT_OK(scalar_reader.GetI64(&loaded.global_step));
  EMBA_RETURN_NOT_OK(scalar_reader.GetI64(&loaded.trained_pairs));
  EMBA_RETURN_NOT_OK(scalar_reader.GetF64(&loaded.best_valid_f1));
  EMBA_RETURN_NOT_OK(scalar_reader.GetI64(&loaded.epochs_since_improvement));
  EMBA_RETURN_NOT_OK(GetHistory(&scalar_reader, &loaded.epoch_train_loss));
  EMBA_RETURN_NOT_OK(GetHistory(&scalar_reader, &loaded.epoch_valid_f1));
  uint64_t order_len = 0;
  EMBA_RETURN_NOT_OK(scalar_reader.GetU64(&order_len));
  if (order_len != train_size) {
    return Status::Invalid(
        "checkpoint was taken on a training split of " +
        std::to_string(order_len) + " pairs, this run has " +
        std::to_string(train_size));
  }
  loaded.order.resize(order_len);
  std::vector<bool> seen(order_len, false);
  for (auto& v : loaded.order) {
    uint64_t raw = 0;
    EMBA_RETURN_NOT_OK(scalar_reader.GetU64(&raw));
    if (raw >= order_len || seen[raw]) {
      return Status::Invalid("sample order in trainer/state is not a "
                             "permutation of the training split");
    }
    seen[raw] = true;
    v = static_cast<size_t>(raw);
  }
  if (!scalar_reader.exhausted()) {
    return Status::Invalid("trailing bytes in trainer/state");
  }
  if (loaded.next_epoch < 0 || loaded.global_step < 0 ||
      loaded.epochs_since_improvement < 0) {
    return Status::Invalid("negative counter in trainer/state");
  }

  // Everything validated — only now mutate the model/optimizer/RNGs.
  for (auto& [name, var] : named) {
    var.mutable_value() = *reader->FindTensor("model." + name);
  }
  int8::BumpWeightGeneration();  // loaded storage may alias freed pointers
  EMBA_RETURN_NOT_OK(optimizer->LoadState(*reader, "opt."));
  EMBA_RETURN_NOT_OK(rng->LoadState(*rng_bytes));
  if (dropout_rng != nullptr) {
    EMBA_RETURN_NOT_OK(dropout_rng->LoadState(*model_rng_bytes));
  }
  *best_snapshot = std::move(best);
  *state = std::move(loaded);
  return Status::OK();
}

}  // namespace

Trainer::Trainer(EmModel* model, const EncodedDataset* dataset,
                 const TrainConfig& config)
    : model_(model), dataset_(dataset), config_(config) {
  EMBA_CHECK_MSG(model_ != nullptr && dataset_ != nullptr,
                 "Trainer requires a model and dataset");
}

ag::Var Trainer::SampleLoss(const PairSample& sample,
                            LossBreakdown* breakdown) const {
  ModelOutput out = model_->Forward(sample);
  std::vector<ag::Var> terms;
  terms.push_back(
      ag::BinaryCrossEntropyFromLogits(out.em_logits, sample.match ? 1 : 0));
  if (breakdown != nullptr) {
    breakdown->em += static_cast<double>(terms.back().item());
    ++breakdown->n_em;
  }
  if (model_->has_aux_heads()) {
    float aux = config_.aux_loss_weight;
    if (aux < 0.0f) {
      aux = 1.0f / std::max(1.0f, std::log(static_cast<float>(
                                      std::max(dataset_->num_id_classes, 2))));
    }
    if (out.id1_logits.defined() && sample.id1 >= 0 &&
        sample.id1 < dataset_->num_id_classes) {
      terms.push_back(ag::Scale(
          ag::CrossEntropyFromLogits(out.id1_logits, sample.id1), aux));
      if (breakdown != nullptr) {
        breakdown->id1 += static_cast<double>(terms.back().item());
        ++breakdown->n_id1;
      }
    }
    if (out.id2_logits.defined() && sample.id2 >= 0 &&
        sample.id2 < dataset_->num_id_classes) {
      terms.push_back(ag::Scale(
          ag::CrossEntropyFromLogits(out.id2_logits, sample.id2), aux));
      if (breakdown != nullptr) {
        breakdown->id2 += static_cast<double>(terms.back().item());
        ++breakdown->n_id2;
      }
    }
  }
  return terms.size() == 1 ? terms[0] : ag::AddN(terms);
}

EvalResult Trainer::Evaluate(const std::vector<PairSample>& split) const {
  EMBA_TRACE_SPAN_ARGS("trainer/evaluate", {"pairs", split.size()});
  model_->SetTraining(false);
  // Forward passes fan out across the thread pool; outputs come back in
  // split order, so the metric accumulation below is thread-count invariant.
  std::vector<ModelOutput> outputs = BatchForward(*model_, split);
  std::vector<bool> em_true, em_pred;
  std::vector<int> id_true, id_pred;
  std::vector<int> id1_true, id1_pred, id2_true, id2_pred;
  for (size_t s = 0; s < split.size(); ++s) {
    const PairSample& sample = split[s];
    const ModelOutput& out = outputs[s];
    em_true.push_back(sample.match);
    em_pred.push_back(PredictBinary(out.em_logits.value()) == 1);
    if (model_->has_aux_heads() && out.id1_logits.defined()) {
      id1_true.push_back(sample.id1);
      id1_pred.push_back(PredictClass(out.id1_logits.value()));
      id2_true.push_back(sample.id2);
      id2_pred.push_back(PredictClass(out.id2_logits.value()));
    }
  }
  EvalResult result;
  result.em = ComputeBinaryMetrics(em_true, em_pred);
  if (!id1_true.empty()) {
    result.id1_accuracy = Accuracy(id1_true, id1_pred);
    result.id2_accuracy = Accuracy(id2_true, id2_pred);
    id_true = id1_true;
    id_true.insert(id_true.end(), id2_true.begin(), id2_true.end());
    id_pred = id1_pred;
    id_pred.insert(id_pred.end(), id2_pred.begin(), id2_pred.end());
    result.id_macro_f1 = MacroF1(id_true, id_pred);
  }
  model_->SetTraining(true);
  return result;
}

TrainResult Trainer::Run() {
  TrainResult result;
  Status status = Run(&result);
  EMBA_CHECK_MSG(status.ok(), status.ToString());
  return result;
}

Status Trainer::Run(TrainResult* out) {
  EMBA_TRACE_SPAN("trainer/run");
  EMBA_CHECK_MSG(!ag::InferenceMode(),
                 "Trainer::Run under an active InferenceModeGuard — training "
                 "cannot record gradients on the inference fast path");
  SetHealthState(HealthState::kTraining);
  // Hot-path metrics, resolved once. Loss sums are gauges with Add(): the
  // monotone float accumulators a consumer divides by `pairs_trained`.
  static metrics::Counter& pairs_trained_counter =
      metrics::GetCounter("trainer.pairs_trained");
  static metrics::Counter& steps_counter = metrics::GetCounter("trainer.steps");
  static metrics::Counter& epochs_counter =
      metrics::GetCounter("trainer.epochs");
  static metrics::Gauge& em_loss_sum =
      metrics::GetGauge("trainer.loss_sum.em");
  static metrics::Gauge& id1_loss_sum =
      metrics::GetGauge("trainer.loss_sum.id1");
  static metrics::Gauge& id2_loss_sum =
      metrics::GetGauge("trainer.loss_sum.id2");
  static metrics::Gauge& grad_norm_gauge =
      metrics::GetGauge("trainer.grad_norm");
  static metrics::Histogram& step_latency =
      metrics::GetHistogram("trainer.step_ms");
  static metrics::Histogram& checkpoint_latency =
      metrics::GetHistogram("trainer.checkpoint_write_ms");

  Rng rng(config_.seed);
  auto params = model_->Parameters();
  nn::Adam optimizer(params, config_.learning_rate);

  const int64_t steps_per_epoch = std::max<int64_t>(
      1, (static_cast<int64_t>(dataset_->train.size()) + config_.batch_size -
          1) / config_.batch_size);
  nn::LinearWarmupDecay schedule(
      config_.learning_rate, config_.warmup_epochs * steps_per_epoch,
      static_cast<int64_t>(config_.max_epochs) * steps_per_epoch);

  std::vector<size_t> order(dataset_->train.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  TrainResult result;
  std::vector<Tensor> best_snapshot = SnapshotParameters(params);
  ResumeState state;

  const bool checkpointing = !config_.checkpoint_path.empty();
  EMBA_CHECK_MSG(!checkpointing || config_.checkpoint_every >= 1,
                 "checkpoint_every must be >= 1");
  bool resumed_run = false;
  if (config_.resume && checkpointing &&
      FileExists(config_.checkpoint_path)) {
    EMBA_RETURN_NOT_OK(LoadTrainerCheckpoint(
        config_.checkpoint_path, model_, &optimizer, &rng,
        config_.dropout_rng, order.size(), &best_snapshot, &state));
    resumed_run = true;
    order = state.order;
    result.epoch_train_loss = state.epoch_train_loss;
    result.epoch_valid_f1 = state.epoch_valid_f1;
    result.epochs_ran = static_cast<int>(state.next_epoch);
    if (config_.verbose) {
      EMBA_LOG(INFO) << dataset_->name << " resumed from "
                     << config_.checkpoint_path << " at epoch "
                     << state.next_epoch;
    }
  }

  // ---- Training observability (src/train_obs, DESIGN.md §11) ----
  // StartRun resets the /trainz run status, groups the parameters by
  // module and opens (or, on resume, trims) the JSONL event log; all are
  // once-per-run costs. The per-step hooks below all hide behind one
  // TelemetryActive() relaxed-load gate.
  {
    train_obs::RunInfo run_info;
    run_info.dataset = dataset_->name;
    run_info.model = model_->name();
    run_info.max_epochs = config_.max_epochs;
    run_info.train_size = static_cast<int64_t>(dataset_->train.size());
    run_info.has_aux_heads = model_->has_aux_heads();
    run_info.resumed = resumed_run;
    run_info.resume_step = state.global_step;
    run_info.resume_epoch = state.next_epoch;
    // NamedParameters() walks the tree in Parameters() order, so index i
    // aligns across these names, `params`, `weights` and the optimizer's
    // update norms.
    for (const auto& [name, var] : model_->NamedParameters()) {
      run_info.param_names.push_back(name);
    }
    EMBA_RETURN_NOT_OK(train_obs::StartRun(run_info));
  }
  std::vector<const Tensor*> weights;
  for (const ag::Var& p : params) weights.push_back(&p.value());
  std::vector<const Tensor*> grad_scratch;
  grad_scratch.reserve(params.size());
  bool collecting_update_norms = false;

  int64_t trained_pairs = state.trained_pairs;
  const int64_t pairs_before_this_run = trained_pairs;
  int epochs_this_run = 0;
  Stopwatch train_timer;
  Stopwatch heartbeat_timer;
  double last_heartbeat_emit = -1.0;

  model_->SetTraining(true);
  for (int epoch = static_cast<int>(state.next_epoch);
       epoch < config_.max_epochs; ++epoch) {
    EMBA_TRACE_SPAN_ARGS("trainer/epoch", {"epoch", epoch});
    // Resume-safe early-stop guard: an uninterrupted run breaks at the end
    // of the epoch that exhausts the patience; a resumed run whose
    // checkpoint already carries that exhausted patience must not train one
    // more epoch. The condition is the end-of-epoch break re-evaluated at
    // the top, so both paths stop at the same boundary.
    if (epoch >= config_.min_epochs &&
        state.epochs_since_improvement >= config_.patience) {
      break;
    }
    rng.Shuffle(&order);  // Algorithm 1: shuffle merged mini-batches
    Stopwatch epoch_timer;
    double epoch_loss = 0.0;
    size_t i = 0;
    LossBreakdown epoch_breakdown;
    while (i < order.size()) {
      EMBA_TRACE_SPAN_ARGS("trainer/step", {"step", state.global_step},
                           {"epoch", epoch});
      Stopwatch step_timer;
      // One relaxed-load gate for every per-step train_obs hook; false is
      // the zero-overhead path (the only residue below is this branch).
      const bool telemetry = train_obs::TelemetryActive();
      if (telemetry != collecting_update_norms) {
        optimizer.set_collect_update_norms(telemetry);
        collecting_update_norms = telemetry;
      }
      LossBreakdown step_before;
      if (telemetry) step_before = epoch_breakdown;
      model_->ZeroGrad();
      const size_t batch_start = i;
      const size_t batch_end =
          std::min(order.size(), i + static_cast<size_t>(config_.batch_size));
      const float inv_batch =
          1.0f / static_cast<float>(batch_end - i);
      for (; i < batch_end; ++i) {
        ag::Var loss =
            ag::Scale(SampleLoss(dataset_->train[order[i]], &epoch_breakdown),
                      inv_batch);
        epoch_loss += static_cast<double>(loss.item()) / inv_batch;
        loss.Backward();
        ++trained_pairs;
      }
      if (config_.inject_inf_grad_at_step >= 0 &&
          state.global_step == config_.inject_inf_grad_at_step) {
        // Sentinel test hook: poison the first available gradient.
        for (auto& p : params) {
          if (!p.has_grad() || p.grad().size() == 0) continue;
          const_cast<Tensor&>(p.grad())[0] =
              std::numeric_limits<float>::infinity();
          break;
        }
      }
      // Sentinels look at the *pre-clip* gradients: clipping a non-finite
      // norm rescales by 0 and would smear the evidence into NaN everywhere.
      bool losses_finite = true;
      std::string loss_offender;
      train_obs::GradObservation grad_obs;
      if (telemetry) {
        losses_finite = train_obs::ObserveLoss(
            epoch_breakdown.em - step_before.em,
            epoch_breakdown.id1 - step_before.id1,
            epoch_breakdown.id2 - step_before.id2, &loss_offender);
        grad_scratch.clear();
        for (const ag::Var& p : params) {
          grad_scratch.push_back(p.has_grad() ? &p.grad() : nullptr);
        }
        grad_obs = train_obs::ObserveGradients(grad_scratch);
        if (train_obs::NanAbort()) {
          if (!losses_finite) {
            train_obs::NanAbortNow("loss:" + loss_offender,
                                   state.global_step);
          }
          if (grad_obs.nonfinite) {
            train_obs::NanAbortNow("grad:" + grad_obs.offender,
                                   state.global_step);
          }
        }
      }
      const float grad_norm = nn::ClipGradNorm(params, config_.clip_norm);
      grad_norm_gauge.Set(static_cast<double>(grad_norm));
      optimizer.set_learning_rate(schedule.LearningRate(state.global_step));
      optimizer.Step();
      ++state.global_step;
      steps_counter.Increment();
      pairs_trained_counter.Increment(batch_end - batch_start);
      const double step_ms = step_timer.ElapsedMillis();
      step_latency.Observe(step_ms);
      if (telemetry) {
        train_obs::StepEvent ev;
        ev.step = state.global_step - 1;
        ev.epoch = epoch;
        ev.loss_em = epoch_breakdown.em - step_before.em;
        ev.loss_id1 = epoch_breakdown.id1 - step_before.id1;
        ev.loss_id2 = epoch_breakdown.id2 - step_before.id2;
        ev.n_em = epoch_breakdown.n_em - step_before.n_em;
        ev.n_id1 = epoch_breakdown.n_id1 - step_before.n_id1;
        ev.n_id2 = epoch_breakdown.n_id2 - step_before.n_id2;
        ev.lr = static_cast<double>(optimizer.learning_rate());
        ev.grad_norm = grad_obs.global_norm;
        ev.step_ms = step_ms;
        train_obs::UpdateObservation upd = train_obs::ObserveUpdates(
            weights, optimizer.last_update_sq_norms());
        ev.update_ratio = upd.global_ratio;
        ev.module_update_ratios = std::move(upd.module_ratios);
        ev.module_grad_norms = std::move(grad_obs.module_norms);
        train_obs::LogStep(ev);
      }
      // Liveness stamp for /healthz. Gated on the server actually running so
      // the disabled-server hot path stays byte-for-byte what it was (the
      // zero-overhead contract the table7 acceptance bound pins).
      if (ObservabilityServerRunning()) HealthHeartbeat();

      // Heartbeat: periodic one-line progress signal, independent of
      // `verbose`. Throughput counts only this process's pairs; the ETA is
      // the upper bound at max_epochs (early stopping can only beat it).
      if (config_.heartbeat_seconds > 0.0 &&
          heartbeat_timer.ElapsedSeconds() >= config_.heartbeat_seconds) {
        heartbeat_timer.Restart();
        // Hard rate cap independent of the configured interval: at most one
        // heartbeat line per second, so a misconfigured sub-second interval
        // (or sub-second epochs re-arming the timer) cannot flood the log.
        const double now_seconds = train_timer.ElapsedSeconds();
        if (last_heartbeat_emit >= 0.0 &&
            now_seconds - last_heartbeat_emit < 1.0) {
          static metrics::Counter& heartbeat_suppressed =
              metrics::GetCounter("training.heartbeat.suppressed");
          heartbeat_suppressed.Increment();
          continue;
        }
        last_heartbeat_emit = now_seconds;
        const int64_t pairs_so_far = trained_pairs - pairs_before_this_run;
        const double rate =
            train_timer.ElapsedSeconds() > 0.0
                ? static_cast<double>(pairs_so_far) /
                      train_timer.ElapsedSeconds()
                : 0.0;
        const int64_t pairs_remaining =
            static_cast<int64_t>(config_.max_epochs - epoch) *
                static_cast<int64_t>(order.size()) -
            static_cast<int64_t>(i);
        const double eta_seconds =
            rate > 0.0 ? static_cast<double>(pairs_remaining) / rate : 0.0;
        const metrics::ProcessStats proc = metrics::GetProcessStats();
        EMBA_LOG(INFO) << dataset_->name << " heartbeat: epoch " << epoch
                       << " step " << state.global_step << " | "
                       << static_cast<int64_t>(rate) << " pairs/s | loss "
                       << (epoch_loss / static_cast<double>(std::max<size_t>(
                                            i, 1)))
                       << " | eta<=" << static_cast<int64_t>(eta_seconds)
                       << "s | rss " << proc.rss_bytes / (1024 * 1024)
                       << "MB threads " << proc.threads;
      }
    }
    em_loss_sum.Add(epoch_breakdown.em);
    id1_loss_sum.Add(epoch_breakdown.id1);
    id2_loss_sum.Add(epoch_breakdown.id2);
    epochs_counter.Increment();
    result.epoch_train_loss.push_back(
        epoch_loss / static_cast<double>(std::max<size_t>(order.size(), 1)));
    if (train_obs::TelemetryActive()) {
      train_obs::EpochEvent ev;
      ev.epoch = epoch;
      ev.step = state.global_step;
      ev.loss_em = epoch_breakdown.em;
      ev.loss_id1 = epoch_breakdown.id1;
      ev.loss_id2 = epoch_breakdown.id2;
      ev.n_em = epoch_breakdown.n_em;
      ev.n_id1 = epoch_breakdown.n_id1;
      ev.n_id2 = epoch_breakdown.n_id2;
      ev.epoch_seconds = epoch_timer.ElapsedSeconds();
      ev.heap_allocs = TensorHeapAllocCount();
      static metrics::Counter& parallel_for_counter =
          metrics::GetCounter("threadpool.parallel_for_calls");
      ev.parallel_for_calls =
          static_cast<int64_t>(parallel_for_counter.Value());
      train_obs::LogEpoch(ev);
    }

    EvalResult valid = Evaluate(dataset_->valid);
    result.epoch_valid_f1.push_back(valid.em.f1);
    if (config_.verbose) {
      EMBA_LOG(INFO) << dataset_->name << " epoch " << epoch
                     << " valid F1=" << valid.em.f1;
    }
    result.epochs_ran = epoch + 1;
    bool stop = false;
    const bool improved = valid.em.f1 > state.best_valid_f1;
    if (improved) {
      state.best_valid_f1 = valid.em.f1;
      best_snapshot = SnapshotParameters(params);
      state.epochs_since_improvement = 0;
    } else {
      ++state.epochs_since_improvement;
      if (epoch + 1 >= config_.min_epochs &&
          state.epochs_since_improvement >= config_.patience) {
        stop = true;
      }
    }
    if (train_obs::TelemetryActive()) {
      train_obs::EvalEvent ev;
      ev.epoch = epoch;
      ev.step = state.global_step;
      ev.split = "valid";
      ev.f1 = valid.em.f1;
      ev.precision = valid.em.precision;
      ev.recall = valid.em.recall;
      ev.id1_accuracy = valid.id1_accuracy;
      ev.id2_accuracy = valid.id2_accuracy;
      ev.improved = improved;
      train_obs::LogEval(ev);
    }

    ++epochs_this_run;
    if (checkpointing &&
        ((epoch + 1) % config_.checkpoint_every == 0 || stop ||
         epoch + 1 == config_.max_epochs)) {
      state.next_epoch = epoch + 1;
      state.trained_pairs = trained_pairs;
      state.epoch_train_loss = result.epoch_train_loss;
      state.epoch_valid_f1 = result.epoch_valid_f1;
      state.order = order;
      EMBA_TRACE_SPAN_ARGS("trainer/checkpoint_write", {"epoch", epoch});
      Stopwatch checkpoint_timer;
      int64_t checkpoint_bytes = 0;
      EMBA_RETURN_NOT_OK(SaveTrainerCheckpoint(
          config_.checkpoint_path, config_.checkpoint_keep_last, *model_,
          optimizer, rng, config_.dropout_rng, best_snapshot, state,
          &checkpoint_bytes));
      const double checkpoint_ms = checkpoint_timer.ElapsedMillis();
      checkpoint_latency.Observe(checkpoint_ms);
      train_obs::CheckpointEvent ev;
      ev.epoch = epoch;
      ev.step = state.global_step;
      ev.path = config_.checkpoint_path;
      ev.bytes = checkpoint_bytes;
      ev.write_ms = checkpoint_ms;
      train_obs::LogCheckpoint(ev);
    }
    if (config_.interrupt_after_epochs > 0 &&
        epochs_this_run >= config_.interrupt_after_epochs) {
      // Simulated crash: bail out exactly as a kill would — no best-weight
      // restore, no test evaluation, partial result.
      *out = result;
      return Status::OK();
    }
    if (stop) break;
  }
  const double train_seconds = train_timer.ElapsedSeconds();
  // Throughput counts only pairs trained by this process (a resumed run
  // did not pay wall-clock for the pre-interruption epochs).
  const int64_t pairs_this_run = trained_pairs - pairs_before_this_run;
  result.train_pairs_per_second =
      train_seconds > 0.0 ? static_cast<double>(pairs_this_run) / train_seconds
                          : 0.0;

  RestoreParameters(&params, best_snapshot);
  result.best_valid_f1 = std::max(state.best_valid_f1, 0.0);

  Stopwatch infer_timer;
  result.test = Evaluate(dataset_->test);
  const double infer_seconds = infer_timer.ElapsedSeconds();
  result.inference_pairs_per_second =
      infer_seconds > 0.0
          ? static_cast<double>(dataset_->test.size()) / infer_seconds
          : 0.0;
  if (train_obs::TelemetryActive()) {
    train_obs::EvalEvent ev;
    ev.epoch = result.epochs_ran;
    ev.step = state.global_step;
    ev.split = "test";
    ev.f1 = result.test.em.f1;
    ev.precision = result.test.em.precision;
    ev.recall = result.test.em.recall;
    ev.id1_accuracy = result.test.id1_accuracy;
    ev.id2_accuracy = result.test.id2_accuracy;
    train_obs::LogEval(ev);
  }
  train_obs::EndRun(result.best_valid_f1, result.test.em.f1,
                    result.epochs_ran);
  *out = result;
  return Status::OK();
}

TrainResult RunLrSweep(
    const std::function<std::unique_ptr<EmModel>()>& factory,
    const EncodedDataset& dataset, TrainConfig config,
    const std::vector<float>& learning_rates) {
  EMBA_CHECK_MSG(!learning_rates.empty(), "empty learning-rate sweep");
  TrainResult best;
  double best_valid = -1.0;
  for (float lr : learning_rates) {
    auto model = factory();
    config.learning_rate = lr;
    Trainer trainer(model.get(), &dataset, config);
    TrainResult result = trainer.Run();
    if (result.best_valid_f1 > best_valid) {
      best_valid = result.best_valid_f1;
      best = result;
    }
  }
  return best;
}

}  // namespace core
}  // namespace emba
