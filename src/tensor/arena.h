// Thread-local bump-allocator arena for inference activations.
//
// Under the autograd inference fast path (ag::InferenceModeGuard), every
// intermediate Tensor produced by EmModel::Forward is short-lived: it exists
// only until the sample's logits are read. Paying a heap malloc/free per
// intermediate is the dominant non-arithmetic cost of a scored pair. The
// ActivationArena removes it: each thread owns one fixed-capacity buffer,
// Allocate() is a pointer bump, and Reset() reclaims everything at once
// between samples.
//
// Lifetime rules (see DESIGN.md "Inference fast path"):
//   - Arena storage is only valid until the next Reset() on the same thread.
//     Any tensor that must outlive the current sample (returned logits,
//     captured attention maps, batch outputs) must escape via
//     Tensor::EnsureHeap() / Tensor::HeapClone() before Reset() runs.
//   - Reset() is only legal at Scope depth 1 (the outermost scope); nested
//     scopes share the outer scope's buffer and must not reset it.
//   - The arena never hands out storage while inactive: outside a Scope (or
//     under ForceDisabledForTest) Allocate() returns nullptr and tensors
//     fall back to the heap, byte-for-byte equivalent.
//
// When the buffer is exhausted mid-sample, Allocate() returns nullptr and
// the caller falls back to the heap (counted in Stats::heap_fallbacks);
// results are identical either way — the arena changes where bytes live,
// never their values.
//
// Under AddressSanitizer the unused portion of the buffer is kept poisoned
// so stale reads of reclaimed activations fault instead of silently
// returning old data.
#pragma once

#include <cstdint>

namespace emba {

class ActivationArena {
 public:
  /// Per-thread (and, via GlobalStats, process-wide) usage counters.
  struct Stats {
    int64_t capacity_bytes = 0;
    int64_t bytes_in_use = 0;
    int64_t high_water_bytes = 0;  ///< max bytes_in_use since thread start
    int64_t resets = 0;            ///< completed Reset() calls
    int64_t heap_fallbacks = 0;    ///< Allocate() misses (full or oversized)
  };

  /// RAII activation for the calling thread. While at least one Scope is
  /// alive, Tensor storage on this thread is served from the arena. The
  /// outermost Scope resets the arena on destruction; nested scopes are
  /// no-ops so helper functions can be arena-safe without double-resetting.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    bool outermost_;
  };

  /// Bump-allocates `count` floats (64-byte aligned) from the calling
  /// thread's buffer. Returns nullptr when the arena is inactive, disabled,
  /// or the buffer cannot fit the request — callers must heap-allocate then.
  static float* Allocate(int64_t count);

  /// True if `p` points into the calling thread's arena buffer.
  static bool Owns(const float* p);

  /// Reclaims all arena storage on the calling thread. Only legal at Scope
  /// depth <= 1; any arena-backed tensor still alive afterwards dangles.
  static void Reset();

  /// True while the calling thread is inside a Scope and the arena is not
  /// force-disabled.
  static bool Active();

  static Stats ThreadStats();
  /// Aggregated across all threads since process start: high water is the
  /// max over threads, resets/fallbacks are sums.
  static Stats GlobalStats();

  // ---- test hooks ----
  /// Overrides the per-thread capacity (applies to buffers created after the
  /// call on each thread; pass 0 to restore the 8 MiB default).
  static void SetCapacityForTest(int64_t bytes);
  /// Forces Active() false regardless of scopes: the heap reference path.
  static void ForceDisabledForTest(bool disabled);
};

}  // namespace emba
