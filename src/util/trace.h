// Scoped-span tracer exporting Chrome trace-event JSON.
//
//   trace::Start();
//   { EMBA_TRACE_SPAN("trainer/epoch"); ... }          // complete event
//   { EMBA_TRACE_SPAN_ARGS("trainer/step", {"step", s}, {"epoch", e}); ... }
//   trace::WriteJson("run.trace.json");                // open in Perfetto /
//                                                      // chrome://tracing
//
// Cost model
// ----------
// Disabled (the default): a span is one relaxed atomic load and a branch —
// no clock read, no allocation, no store. This is the overhead contract the
// observability test pins and the table7 acceptance bound relies on.
// Enabled: two steady_clock reads plus one append into a per-thread ring
// buffer under that buffer's (uncontended) mutex.
//
// Storage
// -------
// Events land in fixed-capacity per-thread ring buffers (kRingCapacity
// events/thread); when a ring wraps, the *oldest* events are overwritten and
// the drop is counted (exported as the "emba.trace.dropped" metadata event
// and the `trace.events_dropped` counter — never silent). Buffers are
// registered globally and outlive their threads, so WriteJson sees events
// from joined pool workers too.
//
// Span args
// ---------
// A span carries up to kMaxSpanArgs typed key/value arguments (int64,
// double, or string). Argument names and string values must outlive the
// process: string literals qualify directly; dynamic strings go through
// InternString(), which copies them into a process-lifetime pool once and
// returns a stable pointer.
//
// Span names must be string literals (or otherwise outlive the process);
// dynamic names go through the fixed-size copy of RecordSpanCopy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace emba {
namespace trace {

using Clock = std::chrono::steady_clock;

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True while the tracer is recording. One relaxed load.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Clears every ring buffer and starts recording. The trace clock zero is
/// (re)anchored at this call, so timestamps are relative to Start().
void Start();

/// Stops recording; buffered events stay available for WriteJson.
void Stop();

/// Small dense id for the calling thread (0 = first thread to ask). Used as
/// the Chrome `tid` and by the logging prefix.
int CurrentThreadId();

/// Maximum typed key/value arguments per span.
constexpr int kMaxSpanArgs = 4;

/// One typed span argument. `name` (and a string value) must outlive the
/// process — a literal, or a pointer from InternString(). Trivially
/// copyable so events stay memcpy-able ring entries.
struct SpanArg {
  enum class Type : uint8_t { kNone = 0, kInt64, kDouble, kString };

  const char* name = nullptr;  ///< nullptr = unused slot
  Type type = Type::kNone;
  union {
    int64_t i;
    double d;
    const char* s;
  };

  constexpr SpanArg() : i(0) {}
  // One constructor per value family; the integral template keeps
  // SpanArg("epoch", 3) from being ambiguous between int64 and double.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  constexpr SpanArg(const char* arg_name, T value)
      : name(arg_name), type(Type::kInt64), i(static_cast<int64_t>(value)) {}
  constexpr SpanArg(const char* arg_name, bool value)
      : name(arg_name), type(Type::kInt64), i(value ? 1 : 0) {}
  constexpr SpanArg(const char* arg_name, double value)
      : name(arg_name), type(Type::kDouble), d(value) {}
  constexpr SpanArg(const char* arg_name, const char* value)
      : name(arg_name), type(Type::kString), s(value) {}
};

/// Copies `s` into a process-lifetime string pool (once per distinct value)
/// and returns a stable pointer usable as a SpanArg name or string value.
/// Takes a mutex; intern outside hot loops and cache the pointer.
const char* InternString(std::string_view s);

/// Records a complete ("ph":"X") event carrying up to kMaxSpanArgs typed
/// arguments. `name`, argument names and string argument values must outlive
/// the process (literals or InternString pointers). Slots past `num_args`
/// (and any arg with a null name) are ignored.
void RecordSpan(const char* name, Clock::time_point begin,
                Clock::time_point end, const SpanArg* args = nullptr,
                int num_args = 0);

/// As RecordSpan but copies `name` into the event (for dynamic names such as
/// "bench/train_once/<model>"); truncated to the event's fixed capacity.
void RecordSpanCopy(const std::string& name, Clock::time_point begin,
                    Clock::time_point end, const SpanArg* args = nullptr,
                    int num_args = 0);

/// Merges all thread buffers into one Chrome trace-event JSON object
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}) and writes it
/// atomically. Events are sorted by timestamp. Works whether or not the
/// tracer is still running.
Status WriteJson(const std::string& path);

/// Owned copy of one buffered event, for in-process consumers (/tracez).
struct EventSnapshot {
  std::string name;
  int tid = 0;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
  struct Arg {
    std::string name;
    SpanArg::Type type = SpanArg::Type::kNone;
    int64_t i = 0;
    double d = 0.0;
    std::string s;
  };
  std::vector<Arg> args;
};

/// The most recent `max_events` buffered events across all threads, sorted
/// by start timestamp (oldest first). Cheap relative to its call rate: takes
/// each buffer's mutex once and copies names into owned strings.
std::vector<EventSnapshot> SnapshotRecentEvents(size_t max_events);

/// Events currently buffered across all threads (tests; cheap, takes each
/// buffer's mutex once).
size_t BufferedEventCount();
/// Events lost to ring wrap-around since Start().
uint64_t DroppedEventCount();

/// Capacity of one thread's ring, in events — the wrap threshold. Exposed
/// so tests can drive a ring past it without hard-coding the constant.
size_t RingCapacityPerThread();

/// Where FlushTraceIfConfigured() writes; empty = nowhere.
void SetTraceOutputPath(const std::string& path);
std::string TraceOutputPath();

/// Reads EMBA_TRACE_OUT; when set, configures the output path and Start()s
/// the tracer.
void InitTraceFromEnv();

/// Writes to the configured path, if any. OK (and a no-op) when
/// unconfigured.
Status FlushTraceIfConfigured();

/// RAII span. Construction samples the clock only when tracing is enabled;
/// the span is recorded at destruction with the enablement state sampled at
/// construction (a span straddling Stop() is still recorded). Accepts up to
/// kMaxSpanArgs typed arguments; when tracing is disabled the args are
/// never copied.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanArg a0 = {}, SpanArg a1 = {},
                      SpanArg a2 = {}, SpanArg a3 = {}) {
    if (Enabled()) {
      name_ = name;
      args_[0] = a0;
      args_[1] = a1;
      args_[2] = a2;
      args_[3] = a3;
      begin_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) {
      RecordSpan(name_, begin_, Clock::now(), args_, kMaxSpanArgs);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  SpanArg args_[kMaxSpanArgs];
  Clock::time_point begin_;
};

/// As ScopedSpan, for dynamic (non-literal) names. The name is copied at
/// construction only when tracing is enabled; disabled cost is one relaxed
/// load, a branch, and an empty std::string.
class ScopedSpanCopy {
 public:
  explicit ScopedSpanCopy(std::string name, SpanArg a0 = {}, SpanArg a1 = {},
                          SpanArg a2 = {}, SpanArg a3 = {}) {
    if (Enabled()) {
      name_ = std::move(name);
      active_ = true;
      args_[0] = a0;
      args_[1] = a1;
      args_[2] = a2;
      args_[3] = a3;
      begin_ = Clock::now();
    }
  }
  ~ScopedSpanCopy() {
    if (active_) {
      RecordSpanCopy(name_, begin_, Clock::now(), args_, kMaxSpanArgs);
    }
  }
  ScopedSpanCopy(const ScopedSpanCopy&) = delete;
  ScopedSpanCopy& operator=(const ScopedSpanCopy&) = delete;

 private:
  std::string name_;
  bool active_ = false;
  SpanArg args_[kMaxSpanArgs];
  Clock::time_point begin_;
};

}  // namespace trace
}  // namespace emba

#define EMBA_TRACE_CONCAT_INNER(a, b) a##b
#define EMBA_TRACE_CONCAT(a, b) EMBA_TRACE_CONCAT_INNER(a, b)

/// Scoped span covering the rest of the enclosing block.
#define EMBA_TRACE_SPAN(name)                                   \
  ::emba::trace::ScopedSpan EMBA_TRACE_CONCAT(emba_trace_span_, \
                                              __COUNTER__)(name)

/// Scoped span with up to four typed arguments, each written as a braced
/// pair: EMBA_TRACE_SPAN_ARGS("x", {"step", s}, {"lr", 0.1}, {"mode", "t"}).
#define EMBA_TRACE_SPAN_ARGS(name, ...)                         \
  ::emba::trace::ScopedSpan EMBA_TRACE_CONCAT(emba_trace_span_, \
                                              __COUNTER__)(name, __VA_ARGS__)
