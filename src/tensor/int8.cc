// Int8 inference path: mode gating, dynamic activation quantization, the
// per-Linear quantized-weight cache, and the GEMM entry point. The hot
// per-element loops (min/max scan, row quantize, integer GEMM) live in the
// dispatched KernelTable backends; this file is orchestration.
#include "tensor/int8.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/status.h"

namespace emba {
namespace int8 {
namespace {

// The i32 accumulator holds Σ aq·wq with |aq·wq| ≤ 127·127 = 16129 per
// term, so k must satisfy 16129·k < 2³¹.
constexpr int64_t kMaxK = (int64_t{1} << 31) / 16129 - 1;

constexpr int kModeUnresolved = -1;

// Unset or malformed (the reader warns) means off.
Mode ResolveFromEnv() {
  return env::ReadBool(env::Knob::kInt8).value_or(false) ? Mode::kOn
                                                        : Mode::kOff;
}

// kModeUnresolved until first use or SetRuntimeMode; either writes a
// resolved value, so an override wins over EMBA_INT8 until ResetMode.
std::atomic<int> g_mode{kModeUnresolved};

std::atomic<uint64_t> g_weight_generation{0};
std::atomic<int64_t> g_cache_bytes{0};
std::atomic<int64_t> g_cache_builds{0};

void PublishCacheBytesGauge() {
  metrics::GetGauge("inference.int8_weight_cache_bytes")
      .Set(static_cast<double>(g_cache_bytes.load(std::memory_order_relaxed)));
}

int64_t CacheEntryBytes(const QuantizedWeight& qw) {
  return static_cast<int64_t>(qw.q.capacity() * sizeof(int8_t) +
                              qw.scales.capacity() * sizeof(float) +
                              qw.colsum.capacity() * sizeof(int32_t));
}

// Per-thread activation-quantization scratch. Plain vectors (not Tensors):
// they grow to the workload's peak once and are invisible to
// TensorHeapAllocCount(), keeping the steady-state zero-alloc assertion
// meaningful under EMBA_INT8=on.
struct QuantScratch {
  std::vector<uint8_t> q;
  std::vector<float> scales;
  std::vector<int32_t> zero_points;
};

QuantScratch& ThreadScratch() {
  thread_local QuantScratch scratch;
  return scratch;
}

// Per-row asymmetric 7-bit quantization: x ≈ scale·(q − zero_point) with
// q in [0, 127]. The 7-bit ceiling (not 255) keeps u8·s8 pair sums inside
// i16 so the AVX2 maddubs kernel cannot saturate. All float math here is
// elementwise and shared verbatim across backends — deterministic.
void QuantizeActivationRows(const float* x, int64_t m, int64_t k,
                            QuantScratch* scratch) {
  // Row stride matches the GEMM's padded depth; pad bytes are zeroed once
  // per call (<= 3 bytes per row) so reused scratch from a different shape
  // can never leak stale values into the padded lanes. Grow-only sizing:
  // shrinking and re-growing across the alternating Linear shapes of one
  // forward pass would zero-fill the re-grown span on every call, and the
  // GEMM never reads past row m anyway.
  const int64_t k4 = kernels::Int8PaddedK(k);
  if (scratch->q.size() < static_cast<size_t>(m * k4)) {
    scratch->q.resize(static_cast<size_t>(m * k4));
  }
  if (scratch->scales.size() < static_cast<size_t>(m)) {
    scratch->scales.resize(static_cast<size_t>(m));
    scratch->zero_points.resize(static_cast<size_t>(m));
  }
  if (k4 > k) {
    for (int64_t r = 0; r < m; ++r) {
      std::memset(scratch->q.data() + r * k4 + k, 0,
                  static_cast<size_t>(k4 - k));
    }
  }
  const kernels::KernelTable& kern = kernels::Active();
  for (int64_t r = 0; r < m; ++r) {
    const float* row = x + r * k;
    float mn = 0.0f, mx = 0.0f;
    kern.MinMax(row, k, &mn, &mx);
    float scale;
    int32_t zp;
    const float range = mx - mn;
    if (!(range > 0.0f) || !std::isfinite(range)) {
      // Constant row (incl. all-zero): one grid point reproduces it
      // exactly. Non-finite rows land here too — out of contract, but
      // clamped rather than undefined.
      const float v = std::isfinite(mn) ? mn : 0.0f;
      scale = v != 0.0f ? std::fabs(v) / 127.0f : 1.0f;
      zp = v < 0.0f ? 127 : 0;
    } else {
      scale = range / 127.0f;
      const float zpf = std::lrintf(-mn / scale);
      zp = zpf < 0.0f ? 0 : (zpf > 127.0f ? 127 : static_cast<int32_t>(zpf));
    }
    scratch->scales[static_cast<size_t>(r)] = scale;
    scratch->zero_points[static_cast<size_t>(r)] = zp;
    kern.Int8QuantizeRow(scratch->q.data() + r * k4, row, 1.0f / scale, zp,
                         k);
  }
}

// Per-output-column symmetric int8 quantization of a [k×n] weight into the
// k-packed interleaved layout the GEMM consumes (kernels.h), with scales
// and column sums padded to the 8-wide accumulator block (pad: scale 1,
// colsum 0 — read as vector lanes, never stored). Cold path (once per
// weight per mutation epoch): plain scalar loops, strided column reads.
QuantizedWeight* BuildQuantizedWeight(const Tensor& weight,
                                      uint64_t generation) {
  const int64_t k = weight.rows();
  const int64_t n = weight.cols();
  const int64_t n_pad = kernels::Int8PackedCols(n);
  auto* qw = new QuantizedWeight();
  qw->k = k;
  qw->n = n;
  qw->src_data = weight.data();
  qw->src_size = weight.size();
  qw->generation = generation;
  std::vector<int8_t> transposed(static_cast<size_t>(n * k));
  qw->scales.assign(static_cast<size_t>(n_pad), 1.0f);
  qw->colsum.assign(static_cast<size_t>(n_pad), 0);
  const float* w = weight.data();
  for (int64_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      const float a = std::fabs(w[p * n + j]);
      amax = (a > amax) ? a : amax;
    }
    const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    int8_t* qcol = transposed.data() + j * k;
    int32_t sum = 0;
    for (int64_t p = 0; p < k; ++p) {
      int32_t v = static_cast<int32_t>(std::lrintf(w[p * n + j] * inv));
      v = v < -127 ? -127 : (v > 127 ? 127 : v);
      qcol[p] = static_cast<int8_t>(v);
      sum += v;
    }
    qw->scales[static_cast<size_t>(j)] = scale;
    qw->colsum[static_cast<size_t>(j)] = sum;
  }
  qw->q.resize(static_cast<size_t>(n_pad * kernels::Int8PaddedK(k)));
  kernels::Int8PackWeights(qw->q.data(), transposed.data(), k, n);
  g_cache_bytes.fetch_add(CacheEntryBytes(*qw), std::memory_order_relaxed);
  g_cache_builds.fetch_add(1, std::memory_order_relaxed);
  PublishCacheBytesGauge();
  return qw;
}

void DestroyQuantizedWeight(QuantizedWeight* qw) {
  if (qw == nullptr) return;
  g_cache_bytes.fetch_sub(CacheEntryBytes(*qw), std::memory_order_relaxed);
  PublishCacheBytesGauge();
  delete qw;
}

}  // namespace

Mode ActiveMode() {
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode == kModeUnresolved) {
    // Concurrent first calls resolve identically; the CAS keeps a
    // concurrent SetRuntimeMode from being overwritten by the env value.
    const int resolved = static_cast<int>(ResolveFromEnv());
    if (g_mode.compare_exchange_strong(mode, resolved,
                                       std::memory_order_acq_rel)) {
      mode = resolved;
    }
  }
  return static_cast<Mode>(mode);
}

void SetRuntimeMode(Mode m) {
  g_mode.store(static_cast<int>(m), std::memory_order_release);
}

void ResetMode() {
  g_mode.store(kModeUnresolved, std::memory_order_release);
}

bool Eligible(int64_t m, int64_t k, int64_t n) {
  if (m < 1 || k < 1 || n < 1 || k > kMaxK) return false;
  return ActiveMode() == Mode::kOn;
}

uint64_t WeightGeneration() {
  return g_weight_generation.load(std::memory_order_acquire);
}

void BumpWeightGeneration() {
  g_weight_generation.fetch_add(1, std::memory_order_acq_rel);
}

int64_t WeightCacheBytes() {
  return g_cache_bytes.load(std::memory_order_relaxed);
}

int64_t WeightCacheBuilds() {
  return g_cache_builds.load(std::memory_order_relaxed);
}

LinearWeightCache::~LinearWeightCache() {
  DestroyQuantizedWeight(cached_.load(std::memory_order_acquire));
}

const QuantizedWeight* LinearWeightCache::Get(const Tensor& weight) {
  const uint64_t generation = WeightGeneration();
  QuantizedWeight* cached = cached_.load(std::memory_order_acquire);
  if (cached != nullptr && cached->generation == generation &&
      cached->src_data == weight.data() &&
      cached->src_size == weight.size()) {
    return cached;
  }
  QuantizedWeight* fresh = BuildQuantizedWeight(weight, generation);
  // Publish. Losing the race means a concurrent reader built the same
  // fresh entry first (parameters cannot mutate during inference — the
  // model-wide eval contract), so adopt theirs and drop ours.
  if (cached_.compare_exchange_strong(cached, fresh,
                                      std::memory_order_acq_rel)) {
    DestroyQuantizedWeight(cached);
    return fresh;
  }
  DestroyQuantizedWeight(fresh);
  return cached;
}

Tensor Int8MatMul(const Tensor& x, const Tensor& w, LinearWeightCache* cache) {
  EMBA_CHECK_MSG(x.ndim() == 2 && w.ndim() == 2 && x.cols() == w.rows(),
                 "Int8MatMul shape mismatch");
  const int64_t m = x.rows();
  const int64_t k = x.cols();
  const int64_t n = w.cols();
  Tensor out({m, n});
  if (out.size() == 0) return out;

  QuantScratch& scratch = ThreadScratch();
  QuantizeActivationRows(x.data(), m, k, &scratch);
  const QuantizedWeight* qw = cache->Get(w);

  kernels::Active().Int8GemmDequant(
      out.data(), scratch.q.data(), scratch.scales.data(),
      scratch.zero_points.data(), m, qw->q.data(), qw->scales.data(),
      qw->colsum.data(), k, n);

  static metrics::Counter& gemm_calls =
      metrics::GetCounter("inference.int8_gemm_calls");
  gemm_calls.Increment();
  return out;
}

}  // namespace int8
}  // namespace emba
