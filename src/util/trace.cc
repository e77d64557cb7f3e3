#include "util/trace.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/atomic_file.h"
#include "util/json.h"
#include "util/metrics.h"

namespace emba {
namespace trace {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// Events per thread ring. 1 << 15 events ≈ 4 MB/thread with four typed arg
// slots per event; a wrap drops the oldest events and is counted, never
// silent.
constexpr size_t kRingCapacity = 1 << 15;

struct Event {
  const char* name = nullptr;  // a literal or an InternString pointer
  SpanArg args[kMaxSpanArgs];  // unused slots have a null name
  int64_t ts_ns = 0;           // relative to the trace epoch
  int64_t dur_ns = 0;
};

struct ThreadBuffer {
  std::mutex mutex;
  int tid = 0;
  std::vector<Event> ring;  // capacity kRingCapacity, append then wrap
  size_t next = 0;          // next write slot
  bool wrapped = false;

  void Append(const Event& event) {
    std::lock_guard<std::mutex> lock(mutex);
    if (ring.size() < kRingCapacity) {
      ring.push_back(event);
      next = ring.size() % kRingCapacity;
      return;
    }
    ring[next] = event;
    next = (next + 1) % kRingCapacity;
    wrapped = true;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex);
    ring.clear();
    next = 0;
    wrapped = false;
  }
};

struct Global {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
  // Trace epoch as atomic nanoseconds past a fixed process origin, so
  // recording threads can read it without taking the registry mutex.
  std::atomic<int64_t> epoch_ns{0};
  std::atomic<uint64_t> dropped{0};
};

Clock::time_point Origin() {
  static const Clock::time_point origin = Clock::now();
  return origin;
}

Global& G() {
  // Leaked: worker threads may record during static destruction.
  static Global* g = new Global();
  return *g;
}

ThreadBuffer& LocalBuffer() {
  // The shared_ptr in the global list keeps the buffer alive after the
  // owning thread exits, so WriteJson can still export its events.
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Global& g = G();
    std::lock_guard<std::mutex> lock(g.mutex);
    b->tid = g.next_tid++;
    g.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

void FillEvent(Event* event, Clock::time_point begin, Clock::time_point end,
               const SpanArg* args, int num_args) {
  const int64_t epoch_ns = G().epoch_ns.load(std::memory_order_relaxed);
  event->ts_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(begin - Origin())
          .count() -
      epoch_ns;
  event->dur_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count();
  int slot = 0;
  for (int a = 0; a < num_args && slot < kMaxSpanArgs; ++a) {
    if (args[a].name == nullptr) continue;  // skip unused slots
    event->args[slot++] = args[a];
  }
}

void CountDropIfWrapped(ThreadBuffer& buffer) {
  // Approximate but monotone: one overwrite = one drop.
  if (buffer.wrapped) {
    G().dropped.fetch_add(1, std::memory_order_relaxed);
    metrics::GetCounter("trace.events_dropped").Increment();
  }
}

}  // namespace

void Start() {
  Global& g = G();
  {
    std::lock_guard<std::mutex> lock(g.mutex);
    for (auto& buffer : g.buffers) buffer->Clear();
    g.epoch_ns.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - Origin())
                         .count(),
                     std::memory_order_relaxed);
    g.dropped.store(0, std::memory_order_relaxed);
  }
  internal::g_enabled.store(true, std::memory_order_release);
}

void Stop() {
  internal::g_enabled.store(false, std::memory_order_release);
}

int CurrentThreadId() { return LocalBuffer().tid; }

const char* InternString(std::string_view s) {
  // Node-based set: element addresses (and their c_str()) are stable for
  // the life of the process. Leaked on purpose — interned pointers may live
  // in ring buffers past static destruction.
  static std::mutex* mutex = new std::mutex();
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(*mutex);
  return pool->emplace(s).first->c_str();
}

void RecordSpan(const char* name, Clock::time_point begin,
                Clock::time_point end, const SpanArg* args, int num_args) {
  Event event;
  event.name = name;
  FillEvent(&event, begin, end, args, num_args);
  ThreadBuffer& buffer = LocalBuffer();
  const bool was_full = buffer.ring.size() >= kRingCapacity;
  buffer.Append(event);
  if (was_full) CountDropIfWrapped(buffer);
}

namespace {

// Emits `, "args": {...}` for an event with at least one arg; nothing
// otherwise.
void AppendArgsJson(std::ostringstream* out, const SpanArg* args) {
  bool any = false;
  for (int a = 0; a < kMaxSpanArgs; ++a) {
    if (args[a].name == nullptr) continue;
    *out << (any ? ", \"" : ", \"args\": {\"") << json::Escape(args[a].name)
         << "\": ";
    any = true;
    switch (args[a].type) {
      case SpanArg::Type::kInt64:
        *out << args[a].i;
        break;
      case SpanArg::Type::kDouble:
        *out << json::NumberToString(args[a].d);
        break;
      case SpanArg::Type::kString:
        *out << '"' << json::Escape(args[a].s) << '"';
        break;
      case SpanArg::Type::kNone:
        *out << "null";
        break;
    }
  }
  if (any) *out << "}";
}

struct FlatEvent {
  Event event;
  int tid = 0;
};

// Every buffered event, sorted by start timestamp (oldest first).
std::vector<FlatEvent> CollectEvents(uint64_t* dropped) {
  Global& g = G();
  std::vector<FlatEvent> events;
  std::lock_guard<std::mutex> lock(g.mutex);
  for (const auto& buffer : g.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    for (const Event& event : buffer->ring) {
      events.push_back({event, buffer->tid});
    }
  }
  *dropped = g.dropped.load(std::memory_order_relaxed);
  std::stable_sort(events.begin(), events.end(),
                   [](const FlatEvent& a, const FlatEvent& b) {
                     return a.event.ts_ns < b.event.ts_ns;
                   });
  return events;
}

}  // namespace

Status WriteJson(const std::string& path) {
  uint64_t dropped = 0;
  const std::vector<FlatEvent> events = CollectEvents(&dropped);

  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
         "\"process_name\", \"args\": {\"name\": \"emba\"}}";
  if (dropped > 0) {
    out << ",\n{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
           "\"emba.trace.dropped\", \"args\": {\"events\": "
        << dropped << "}}";
  }
  for (const FlatEvent& flat : events) {
    const Event& event = flat.event;
    out << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << flat.tid
        << ", \"ts\": "
        << json::NumberToString(static_cast<double>(event.ts_ns) / 1000.0)
        << ", \"dur\": "
        << json::NumberToString(static_cast<double>(event.dur_ns) / 1000.0)
        << ", \"cat\": \"emba\", \"name\": \"" << json::Escape(event.name)
        << "\"";
    AppendArgsJson(&out, event.args);
    out << "}";
  }
  out << "\n]}\n";
  return WriteFileAtomic(path, out.str());
}

std::string RecentEventsJson(size_t max_events) {
  uint64_t dropped = 0;
  const std::vector<FlatEvent> events = CollectEvents(&dropped);
  const size_t first =
      events.size() > max_events ? events.size() - max_events : 0;
  std::ostringstream out;
  out << "{\"tracing\": " << (Enabled() ? "true" : "false")
      << ", \"dropped\": " << dropped << ", \"events\": [";
  for (size_t i = first; i < events.size(); ++i) {
    const Event& event = events[i].event;
    out << (i == first ? "\n" : ",\n") << "  {\"name\": \""
        << json::Escape(event.name) << "\", \"tid\": " << events[i].tid
        << ", \"ts_ns\": " << event.ts_ns << ", \"dur_ns\": " << event.dur_ns;
    AppendArgsJson(&out, event.args);
    out << "}";
  }
  out << (first == events.size() ? "]" : "\n]") << "}\n";
  return out.str();
}

size_t BufferedEventCount() {
  Global& g = G();
  std::lock_guard<std::mutex> lock(g.mutex);
  size_t n = 0;
  for (const auto& buffer : g.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    n += buffer->ring.size();
  }
  return n;
}

uint64_t DroppedEventCount() {
  return G().dropped.load(std::memory_order_relaxed);
}

size_t RingCapacityPerThread() { return kRingCapacity; }

}  // namespace trace
}  // namespace emba
