// Backend resolution: EMBA_SIMD override → cpuid feature check → scalar.
// Resolved once per process and cached; ForceBackend/ResetBackend exist for
// tests and benches that need to pin or compare backends explicitly.
//
// Observability: the resolved backend is exported as the
// "kernels.backend_avx2" gauge and a one-shot "kernels/dispatch" trace span.
// Kernel calls are dispatched through the raw function-pointer table with
// no per-call instrumentation.
#include "tensor/kernels.h"

#include <atomic>
#include <cstring>

#include "util/env.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace emba {
namespace kernels {

#ifdef EMBA_HAVE_AVX2_TU
namespace internal {
const KernelTable& Avx2KernelTable();  // defined in kernels_avx2.cc
}
#endif

namespace {

std::atomic<const KernelTable*> g_active{nullptr};

#if defined(__x86_64__) || defined(__i386__)
uint64_t Xgetbv0() {
  uint32_t eax, edx;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}
#endif

void PublishBackendGauge(const KernelTable* table) {
  metrics::GetGauge("kernels.backend_avx2")
      .Set(table->backend == Backend::kAvx2 ? 1.0 : 0.0);
}

const KernelTable* ResolveBackend() {
  EMBA_TRACE_SPAN("kernels/dispatch");
  // EMBA_SIMD=off forces scalar; unset, on or malformed (the reader warns)
  // dispatches on cpuid.
  const bool simd = env::ReadBool(env::Knob::kSimd).value_or(true);
  const KernelTable* avx2 = Avx2KernelsOrNull();
  const KernelTable* resolved = (simd && avx2 != nullptr && CpuSupportsAvx2())
                                    ? avx2
                                    : &ScalarKernels();
  PublishBackendGauge(resolved);
  return resolved;
}

}  // namespace

const char* BackendName(Backend b) {
  return b == Backend::kAvx2 ? "avx2" : "scalar";
}

const KernelTable* Avx2KernelsOrNull() {
#ifdef EMBA_HAVE_AVX2_TU
  return &internal::Avx2KernelTable();
#else
  return nullptr;
#endif
}

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  const bool fma = (ecx & (1u << 12)) != 0;
  if (!osxsave || !avx || !fma) return false;
  // OS must enable XMM+YMM state saving before AVX is usable.
  if ((Xgetbv0() & 0x6) != 0x6) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & (1u << 5)) != 0;  // AVX2
#else
  return false;
#endif
}

const KernelTable& Active() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    // Benign race: concurrent first calls resolve to the same table.
    t = ResolveBackend();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

Backend ActiveBackend() { return Active().backend; }

void ForceBackend(Backend b) {
  if (b == Backend::kAvx2) {
    const KernelTable* avx2 = Avx2KernelsOrNull();
    EMBA_CHECK_MSG(avx2 != nullptr && CpuSupportsAvx2(),
                   "ForceBackend(kAvx2): AVX2 backend unavailable");
    PublishBackendGauge(avx2);
    g_active.store(avx2, std::memory_order_release);
    return;
  }
  PublishBackendGauge(&ScalarKernels());
  g_active.store(&ScalarKernels(), std::memory_order_release);
}

void ResetBackend() {
  g_active.store(ResolveBackend(), std::memory_order_release);
}

void Int8PackWeights(int8_t* packed, const int8_t* wq_t, int64_t k,
                     int64_t n) {
  const int64_t groups = Int8PaddedK(k) / 4;
  const int64_t blocks = Int8PackedCols(n) / 8;
  std::memset(packed, 0, static_cast<size_t>(blocks * groups * 32));
  for (int64_t j = 0; j < n; ++j) {
    const int8_t* src = wq_t + j * k;
    int8_t* dst = packed + (j / 8) * groups * 32 + (j % 8) * 4;
    for (int64_t p = 0; p < k; ++p) dst[(p / 4) * 32 + (p % 4)] = src[p];
  }
}

}  // namespace kernels
}  // namespace emba
