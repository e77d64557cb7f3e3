#include "tensor/arena.h"

#include <atomic>
#include <new>

#include "util/metrics.h"
#include "util/status.h"

// AddressSanitizer manual poisoning: arena memory is poisoned while unused
// (freshly created buffers and everything reclaimed by Reset) and unpoisoned
// exactly for the floats handed out by Allocate. A use-after-Reset read of a
// stale arena tensor then faults under ASan instead of returning old bytes,
// and ASan never reports false positives on live allocations.
#if defined(__SANITIZE_ADDRESS__)
#define EMBA_ASAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define EMBA_ASAN_ENABLED 1
#endif
#endif
#ifdef EMBA_ASAN_ENABLED
#include <sanitizer/asan_interface.h>
#define EMBA_ASAN_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define EMBA_ASAN_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define EMBA_ASAN_POISON(p, n) ((void)0)
#define EMBA_ASAN_UNPOISON(p, n) ((void)0)
#endif

namespace emba {
namespace {

constexpr int64_t kDefaultCapacityBytes = 8ll * 1024 * 1024;
constexpr int64_t kAlignment = 64;  // cache line; matches SIMD load width

// Process-wide aggregates. high_water is a CAS-max across threads; the
// counters are plain sums. All are monotone, so relaxed ordering suffices —
// readers only ever see a slightly stale snapshot.
std::atomic<int64_t> g_high_water{0};
std::atomic<int64_t> g_resets{0};
std::atomic<int64_t> g_heap_fallbacks{0};
std::atomic<int64_t> g_capacity_override{0};  // test hook; 0 = default
std::atomic<bool> g_force_disabled{false};

int64_t ConfiguredCapacity() {
  const int64_t forced = g_capacity_override.load(std::memory_order_relaxed);
  return forced > 0 ? forced : kDefaultCapacityBytes;
}

void MaxIntoGlobalHighWater(int64_t candidate) {
  int64_t cur = g_high_water.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !g_high_water.compare_exchange_weak(cur, candidate,
                                             std::memory_order_relaxed)) {
  }
}

struct ThreadArena {
  char* buffer = nullptr;
  int64_t capacity = 0;
  int64_t offset = 0;
  int64_t high_water = 0;
  int64_t resets = 0;
  int64_t heap_fallbacks = 0;
  int depth = 0;  // Scope nesting on this thread

  ~ThreadArena() {
    if (buffer != nullptr) {
      EMBA_ASAN_UNPOISON(buffer, capacity);
      ::operator delete(buffer, std::align_val_t(kAlignment));
    }
  }
};

thread_local ThreadArena t_arena;

}  // namespace

ActivationArena::Scope::Scope() : outermost_(t_arena.depth++ == 0) {}

ActivationArena::Scope::~Scope() {
  // Reset while depth is still 1 so the nesting check in Reset() holds.
  if (outermost_) Reset();
  --t_arena.depth;
}

bool ActivationArena::Active() {
  return t_arena.depth > 0 && !g_force_disabled.load(std::memory_order_relaxed);
}

float* ActivationArena::Allocate(int64_t count) {
  if (count <= 0 || !Active()) return nullptr;
  ThreadArena& a = t_arena;
  if (a.buffer == nullptr) {
    a.capacity = ConfiguredCapacity();
    a.buffer = static_cast<char*>(
        ::operator new(a.capacity, std::align_val_t(kAlignment)));
    EMBA_ASAN_POISON(a.buffer, a.capacity);
  }
  const int64_t bytes =
      (count * static_cast<int64_t>(sizeof(float)) + kAlignment - 1) &
      ~(kAlignment - 1);
  if (a.offset + bytes > a.capacity) {
    ++a.heap_fallbacks;
    g_heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  float* p = reinterpret_cast<float*>(a.buffer + a.offset);
  EMBA_ASAN_UNPOISON(p, count * static_cast<int64_t>(sizeof(float)));
  a.offset += bytes;
  if (a.offset > a.high_water) {
    a.high_water = a.offset;
    MaxIntoGlobalHighWater(a.high_water);
  }
  return p;
}

bool ActivationArena::Owns(const float* p) {
  const ThreadArena& a = t_arena;
  const char* c = reinterpret_cast<const char*>(p);
  return a.buffer != nullptr && c >= a.buffer && c < a.buffer + a.capacity;
}

void ActivationArena::Reset() {
  ThreadArena& a = t_arena;
  EMBA_CHECK_MSG(a.depth <= 1,
                 "ActivationArena::Reset inside a nested Scope would free "
                 "the outer scope's live activations");
  if (a.buffer != nullptr && a.offset > 0) {
    EMBA_ASAN_POISON(a.buffer, a.offset);
  }
  a.offset = 0;
  ++a.resets;
  g_resets.fetch_add(1, std::memory_order_relaxed);
}

ActivationArena::Stats ActivationArena::ThreadStats() {
  const ThreadArena& a = t_arena;
  Stats s;
  s.capacity_bytes = a.buffer != nullptr ? a.capacity : ConfiguredCapacity();
  s.bytes_in_use = a.offset;
  s.high_water_bytes = a.high_water;
  s.resets = a.resets;
  s.heap_fallbacks = a.heap_fallbacks;
  return s;
}

ActivationArena::Stats ActivationArena::GlobalStats() {
  Stats s;
  s.capacity_bytes = ConfiguredCapacity();
  s.bytes_in_use = t_arena.offset;  // calling thread only; others race
  s.high_water_bytes = g_high_water.load(std::memory_order_relaxed);
  s.resets = g_resets.load(std::memory_order_relaxed);
  s.heap_fallbacks = g_heap_fallbacks.load(std::memory_order_relaxed);
  return s;
}

void ActivationArena::SetCapacityForTest(int64_t bytes) {
  g_capacity_override.store(bytes, std::memory_order_relaxed);
  // Drop the calling thread's buffer so the next Allocate re-creates it at
  // the new capacity. Only legal outside any Scope.
  ThreadArena& a = t_arena;
  EMBA_CHECK_MSG(a.depth == 0, "SetCapacityForTest inside an active Scope");
  if (a.buffer != nullptr) {
    EMBA_ASAN_UNPOISON(a.buffer, a.capacity);
    ::operator delete(a.buffer, std::align_val_t(kAlignment));
    a.buffer = nullptr;
    a.capacity = 0;
    a.offset = 0;
  }
}

void ActivationArena::ForceDisabledForTest(bool disabled) {
  g_force_disabled.store(disabled, std::memory_order_relaxed);
}

namespace {

// Publishes the process-wide arena aggregates as gauges on every metrics
// scrape/flush. Registered at static init; arena.o is linked in wherever
// tensors are, so any binary that can score also exports these.
const bool g_arena_gauges_registered = [] {
  metrics::AddScrapeSampler([] {
    const ActivationArena::Stats stats = ActivationArena::GlobalStats();
    metrics::GetGauge("inference.arena_bytes_high_water")
        .Set(static_cast<double>(stats.high_water_bytes));
    metrics::GetGauge("inference.arena_resets")
        .Set(static_cast<double>(stats.resets));
    metrics::GetGauge("inference.arena_heap_fallbacks")
        .Set(static_cast<double>(stats.heap_fallbacks));
  });
  return true;
}();

}  // namespace

}  // namespace emba
