#include "util/profiler.h"

#include <cxxabi.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

namespace emba {
namespace prof {

namespace {

constexpr int kMaxFrames = 48;
constexpr int kMaxSamples = 8192;

struct Sample {
  void* frames[kMaxFrames];
  int depth = 0;
};

// Fixed global sample storage. Slots are claimed by the signal handler with
// a single relaxed fetch_add — overflow past kMaxSamples is simply dropped
// (the claim index keeps counting, so we can report the drop). BSS-resident;
// pages are only touched while a profile runs.
Sample g_samples[kMaxSamples];
std::atomic<int> g_claim_index{0};
std::atomic<bool> g_collecting{false};
std::atomic<bool> g_profile_active{false};
// Handlers currently running, on any thread. Clearing g_collecting does not
// stop a handler that already passed its check, so the collector waits for
// this to drain before it reads g_samples. The increment and the
// g_collecting load are seq_cst, like the collector's store and its load of
// this counter: a handler the collector did not count sees g_collecting ==
// false, and the release decrement publishes a counted handler's sample.
std::atomic<int> g_handlers_running{0};

// Everything here must be async-signal-safe (lock-free atomics are).
// backtrace() allocates on its *first* call (lazy libgcc init), so
// CollectProfile pre-warms it outside the handler; subsequent calls only
// walk the stack.
void ProfileSignalHandler(int /*signum*/) {
  g_handlers_running.fetch_add(1);
  if (g_collecting.load()) {
    const int idx = g_claim_index.fetch_add(1, std::memory_order_relaxed);
    if (idx < kMaxSamples) {
      Sample& s = g_samples[idx];
      s.depth = backtrace(s.frames, kMaxFrames);
    }
  }
  g_handlers_running.fetch_sub(1, std::memory_order_release);
}

void PrewarmBacktrace() {
  static const bool warmed = [] {
    void* scratch[4];
    backtrace(scratch, 4);
    return true;
  }();
  (void)warmed;
}

// "binary(_ZN4emba3fooEv+0x12) [0x55...]" → "emba::foo()"; falls back to
// the raw hex address when there is no symbol (static functions without
// -rdynamic, JIT pages, ...).
std::string SymbolizePc(void* pc) {
  char** syms = backtrace_symbols(&pc, 1);
  std::string out;
  if (syms != nullptr && syms[0] != nullptr) {
    const std::string raw = syms[0];
    const size_t open = raw.find('(');
    const size_t plus = raw.find('+', open == std::string::npos ? 0 : open);
    if (open != std::string::npos && plus != std::string::npos &&
        plus > open + 1) {
      const std::string mangled = raw.substr(open + 1, plus - open - 1);
      int demangle_status = 0;
      char* demangled = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr,
                                            &demangle_status);
      if (demangle_status == 0 && demangled != nullptr) {
        out = demangled;
      } else {
        out = mangled;
      }
      free(demangled);
    }
  }
  free(syms);
  if (out.empty()) {
    std::ostringstream hex;
    hex << pc;
    out = hex.str();
  }
  // Collapsed-stack syntax reserves ';' (frame separator) and ' ' hurts
  // flamegraph parsers less but is ugly; scrub both.
  std::replace(out.begin(), out.end(), ';', ',');
  return out;
}

void SleepFor(double seconds) {
  // ITIMER_REAL delivers SIGALRM to this very thread, interrupting sleep —
  // re-arm against an absolute deadline until it genuinely elapses.
  timespec deadline;
  clock_gettime(CLOCK_MONOTONIC, &deadline);
  const long add_ns =
      deadline.tv_nsec + static_cast<long>((seconds - static_cast<long>(
                                                          seconds)) *
                                           1e9);
  deadline.tv_sec += static_cast<long>(seconds) + add_ns / 1000000000L;
  deadline.tv_nsec = add_ns % 1000000000L;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &deadline,
                         nullptr) == EINTR) {
  }
}

}  // namespace

bool ProfileInProgress() {
  return g_profile_active.load(std::memory_order_acquire);
}

Result<std::string> CollectProfile(double seconds, ProfileClock clock,
                                   int hz) {
  if (!(seconds > 0.0) || seconds > kMaxProfileSeconds) {
    return Status::Invalid("profile duration must be in (0, " +
                           std::to_string(kMaxProfileSeconds) +
                           "] seconds, got " + std::to_string(seconds));
  }
  hz = std::clamp(hz, 1, 1000);

  bool expected = false;
  if (!g_profile_active.compare_exchange_strong(expected, true,
                                                std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("a profile is already in progress");
  }

  PrewarmBacktrace();
  g_claim_index.store(0, std::memory_order_relaxed);
  g_collecting.store(true, std::memory_order_release);

  const int signum = clock == ProfileClock::kCpu ? SIGPROF : SIGALRM;
  const int which = clock == ProfileClock::kCpu ? ITIMER_PROF : ITIMER_REAL;

  struct sigaction action {};
  action.sa_handler = &ProfileSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  struct sigaction old_action {};
  if (sigaction(signum, &action, &old_action) != 0) {
    g_collecting.store(false, std::memory_order_release);
    g_profile_active.store(false, std::memory_order_release);
    return Status::IOError(std::string("sigaction(): ") +
                           std::strerror(errno));
  }

  itimerval timer{};
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = std::max(1L, 1000000L / hz);
  timer.it_value = timer.it_interval;
  if (setitimer(which, &timer, nullptr) != 0) {
    const std::string err = std::strerror(errno);
    sigaction(signum, &old_action, nullptr);
    g_collecting.store(false, std::memory_order_release);
    g_profile_active.store(false, std::memory_order_release);
    return Status::IOError("setitimer(): " + err);
  }

  SleepFor(seconds);

  // Disarm, quiesce, restore. A signal delivered after the disarm sees
  // g_collecting == false and records nothing; a handler already past that
  // check finishes its sample before g_handlers_running drops to zero.
  itimerval off{};
  setitimer(which, &off, nullptr);
  g_collecting.store(false);
  while (g_handlers_running.load() != 0) std::this_thread::yield();
  sigaction(signum, &old_action, nullptr);

  const int claimed = g_claim_index.load(std::memory_order_relaxed);
  const int n = std::min(claimed, kMaxSamples);

  // Aggregate into collapsed stacks: root-first frames joined by ';'.
  // backtrace() from inside the handler sees [0] = the handler itself and
  // [1] = the kernel signal trampoline; the interrupted program counter
  // starts at [2].
  constexpr int kSkipTopFrames = 2;
  std::unordered_map<void*, std::string> symbol_cache;
  auto symbol = [&symbol_cache](void* pc) -> const std::string& {
    auto it = symbol_cache.find(pc);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(pc, SymbolizePc(pc)).first;
    }
    return it->second;
  };
  std::map<std::string, uint64_t> collapsed;  // sorted → deterministic output
  for (int i = 0; i < n; ++i) {
    const Sample& s = g_samples[i];
    std::string stack;
    for (int f = s.depth - 1; f >= kSkipTopFrames; --f) {
      if (!stack.empty()) stack += ';';
      stack += symbol(s.frames[f]);
    }
    if (!stack.empty()) ++collapsed[stack];
  }

  std::ostringstream out;
  for (const auto& [stack, count] : collapsed) {
    out << stack << " " << count << "\n";
  }
  if (claimed > kMaxSamples) {
    out << "[dropped] " << (claimed - kMaxSamples) << "\n";
  }

  g_profile_active.store(false, std::memory_order_release);
  return out.str();
}

}  // namespace prof
}  // namespace emba
