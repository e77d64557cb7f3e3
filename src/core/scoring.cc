#include "core/scoring.h"

#include "autograd/var.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace emba {
namespace core {
namespace {

// Detached, heap-backed copy of a forward pass's outputs. Everything the
// model produced lives in the worker's activation arena; outputs that leave
// the scoring loop must escape before the per-sample Reset reclaims it.
ModelOutput EscapeOutput(const ModelOutput& out) {
  ModelOutput escaped;
  escaped.em_logits = ag::EscapeToHeap(out.em_logits);
  escaped.id1_logits = ag::EscapeToHeap(out.id1_logits);
  escaped.id2_logits = ag::EscapeToHeap(out.id2_logits);
  return escaped;
}

// The one inference loop behind BatchForward and BatchMatchProbabilities:
// fans the samples out across the global thread pool, where every worker
// enters the inference fast path and an arena scope, and hands sample i's
// arena-backed output to `consume(i, out)` before the arena is reset.
// `span` names the trace span and must be a literal.
template <typename Consume>
void ForwardEach(const EmModel& model, const std::vector<PairSample>& samples,
                 const char* span, Consume consume) {
  EMBA_TRACE_SPAN_ARGS(span, {"pairs", samples.size()});
  Stopwatch batch_timer;
  GlobalThreadPool().ParallelForChunks(
      0, static_cast<int64_t>(samples.size()), /*grain=*/1,
      [&](int64_t begin, int64_t end) {
        // Both guards are thread-local: every pool worker (and the calling
        // thread) enters the fast path independently.
        ag::InferenceModeGuard inference;
        ActivationArena::Scope arena;
        for (int64_t i = begin; i < end; ++i) {
          {
            const ModelOutput out =
                model.Forward(samples[static_cast<size_t>(i)]);
            consume(static_cast<size_t>(i), out);
          }  // drop the arena-backed output before reclaiming its storage
          ActivationArena::Reset();
        }
      });
  static metrics::Counter& pairs_scored =
      metrics::GetCounter("scoring.pairs_scored");
  static metrics::Histogram& batch_latency =
      metrics::GetHistogram("scoring.batch_latency_ms");
  pairs_scored.Increment(samples.size());
  batch_latency.Observe(batch_timer.ElapsedMillis());
}

}  // namespace

std::vector<ModelOutput> BatchForward(const EmModel& model,
                                      const std::vector<PairSample>& samples) {
  EMBA_CHECK_MSG(!model.training(),
                 "BatchForward requires an eval-mode model "
                 "(call SetTraining(false) first)");
  std::vector<ModelOutput> outputs(samples.size());
  ForwardEach(model, samples, "core/batch_forward",
              [&outputs](size_t i, const ModelOutput& out) {
                outputs[i] = EscapeOutput(out);
              });
  return outputs;
}

double MatchProbabilityFromLogits(const Tensor& em_logits) {
  EMBA_CHECK_MSG(em_logits.size() == 2, "EM logits must have 2 entries");
  // Same kernel sequence as emba::SoftmaxRows on a 2-wide row (Max,
  // ExpSubSum, then multiply by the reciprocal of the sum), applied to a
  // stack copy — bit-identical to SoftmaxRows(em_logits)[1] without the
  // tensor materialization.
  float row[2] = {em_logits[0], em_logits[1]};
  const kernels::KernelTable& kern = kernels::Active();
  const float mx = kern.Max(row, 2);
  const float sum = kern.ExpSubSum(row, mx, 2);
  return static_cast<double>(row[1] * (1.0f / sum));
}

double MatchProbability(const EmModel& model, const PairSample& sample) {
  EMBA_CHECK_MSG(!model.training(),
                 "MatchProbability requires an eval-mode model");
  ag::InferenceModeGuard inference;
  ActivationArena::Scope arena;
  ModelOutput out = model.Forward(sample);
  return MatchProbabilityFromLogits(out.em_logits.value());
}

std::vector<double> BatchMatchProbabilities(
    const EmModel& model, const std::vector<PairSample>& samples) {
  EMBA_CHECK_MSG(!model.training(),
                 "BatchMatchProbabilities requires an eval-mode model");
  std::vector<double> probabilities(samples.size());
  ForwardEach(model, samples, "core/batch_match_probabilities",
              [&probabilities](size_t i, const ModelOutput& out) {
                probabilities[i] =
                    MatchProbabilityFromLogits(out.em_logits.value());
              });
  return probabilities;
}

}  // namespace core
}  // namespace emba
