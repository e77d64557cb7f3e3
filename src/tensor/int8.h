// Int8 dynamically-quantized inference GEMM path (DESIGN.md §14).
//
// The weight-stationary matmuls inside nn::Linear dominate inference time.
// Under this path each Linear forward quantizes its activation rows to 7-bit
// unsigned integers on the fly (per-row asymmetric absrange scales), reuses
// a cached per-column symmetric int8 quantization of the weight, multiplies
// in exact int32 arithmetic through the dispatched KernelTable kernels, and
// dequantizes on write. Roughly half the memory traffic and, on AVX2, about
// twice the MAC density of the fp32 GEMM (maddubs + madd versus fma).
//
// Tolerance contract
// ------------------
// Unlike every float kernel in this repo, int8 results are NOT bit-identical
// to the fp32 path — quantization rounds each operand. What IS guaranteed:
//   * int8 results are bit-identical across kernel backends (scalar/AVX2)
//     and across thread counts: quantization is elementwise IEEE math shared
//     by both backends, and integer accumulation is exact, so there is no
//     reduction-order freedom to diverge. Deterministic, just not fp32.
//   * the elementwise error versus fp32 is bounded (kernels_test.cc pins the
//     derived bound) and end-to-end F1 moves by ≤ 0.005 on the bench
//     datasets (the tier-1 parity test).
// Non-finite activations are outside the contract: the fp32 path propagates
// NaN/Inf, the int8 path clamps them into the quantization grid.
//
// Eligibility and gating
// ----------------------
// The path is only ever taken under ag::InferenceModeGuard — training math
// stays fp32 bit-exact. On top of that, EMBA_INT8 (a bool) gates it
// process-wide:
//   off (default/unset) — never taken; fp32 bit-identity holds.
//   on  — taken for every eligible Linear matmul under inference mode.
// `--int8` on emba_cli / serve_bench maps to SetRuntimeMode(kOn).
//
// Weight cache
// ------------
// Each nn::Linear owns a LinearWeightCache holding the packed quantized
// weight + per-column scales/column-sums. Validity = (global weight
// generation unchanged) AND (source data pointer + size unchanged). The
// generation is bumped by every optimizer Step and Module::LoadParameters,
// which covers in-place mutation (stable data pointer) and wholesale
// replacement. Mutating parameters concurrently with inference is already
// undefined behavior model-wide (eval-mode forward is read-only); the cache
// inherits that contract — rebuild/publish uses an atomic pointer and is
// safe against concurrent *readers* racing to build the same fresh entry.
#pragma once

#include <atomic>
#include <cstdint>

#include "tensor/tensor.h"

namespace emba {
namespace int8 {

enum class Mode {
  kOff = 0,
  kOn = 1,
};

/// The resolved process-wide mode: runtime/test override if set, else
/// EMBA_INT8 (unrecognized values mean off), cached after first use.
Mode ActiveMode();

/// Programmatic override (the --int8 flag, tests and benches). Takes
/// precedence over EMBA_INT8.
void SetRuntimeMode(Mode m);

/// Test hook mirroring kernels::ResetBackend: drops any override and
/// re-resolves from EMBA_INT8.
void ResetMode();

/// True when an inference-mode Linear matmul of activation [m×k] against
/// weight [k×n] should take the int8 path under the active mode. Callers
/// must separately hold ag::InferenceMode(). k is capped so the i32
/// accumulator cannot overflow (127·127·k < 2³¹).
bool Eligible(int64_t m, int64_t k, int64_t n);

/// Cached per-column symmetric quantization of one Linear weight, stored
/// in the k-packed interleaved layout the GEMM kernels consume (8-column
/// blocks × 4-depth groups — see kernels.h Int8PackWeights).
struct QuantizedWeight {
  std::vector<int8_t> q;        ///< packed weight, Int8PackedCols(n)·Int8PaddedK(k) bytes
  std::vector<float> scales;    ///< [Int8PackedCols(n)] per-column scales (pad: 1)
  std::vector<int32_t> colsum;  ///< [Int8PackedCols(n)] Σ_p q_col (pad: 0)
  int64_t k = 0;
  int64_t n = 0;
  const float* src_data = nullptr;  ///< identity of the quantized source
  int64_t src_size = 0;
  uint64_t generation = 0;  ///< WeightGeneration() at build time
};

/// Global mutation epoch for all model parameters. Bumped by optimizer
/// steps and checkpoint loads; caches built under an older generation are
/// rebuilt on next use.
uint64_t WeightGeneration();
void BumpWeightGeneration();

/// Total bytes currently held by live quantized-weight cache entries
/// (exported as the inference.int8_weight_cache_bytes gauge).
int64_t WeightCacheBytes();

/// Number of quantized-weight cache (re)builds since process start — tests
/// diff it to prove invalidation happened (or didn't).
int64_t WeightCacheBuilds();

/// One Linear's quantized-weight slot. Thread-safe against concurrent
/// readers; see the file comment for the mutation-exclusivity contract.
class LinearWeightCache {
 public:
  LinearWeightCache() = default;
  ~LinearWeightCache();
  LinearWeightCache(const LinearWeightCache&) = delete;
  LinearWeightCache& operator=(const LinearWeightCache&) = delete;

  /// The current quantization of `weight` ([k×n], 2-D), building and
  /// publishing it if the slot is empty or stale. The returned pointer is
  /// valid until the next successful rebuild (excluded during inference by
  /// the mutation contract) or cache destruction.
  const QuantizedWeight* Get(const Tensor& weight);

 private:
  std::atomic<QuantizedWeight*> cached_{nullptr};
};

/// y = x · w computed on the int8 path; x [m×k] (or 1-D [k]), w [k×n],
/// result [m×n] allocated arena-first like every inference tensor. The
/// caller has already checked Eligible() and holds an inference scope.
/// Increments inference.int8_gemm_calls.
Tensor Int8MatMul(const Tensor& x, const Tensor& w, LinearWeightCache* cache);

}  // namespace int8
}  // namespace emba
