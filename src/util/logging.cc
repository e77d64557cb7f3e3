#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iostream>

#include "util/env.h"
#include "util/trace.h"

namespace emba {
namespace {

// kUnresolved until first use. Resolution stores the default before it
// reads EMBA_LOG_LEVEL, so the reader's warning about a malformed value
// prints at that default instead of re-entering resolution.
constexpr int kUnresolved = -1;
constexpr int kDefault = static_cast<int>(LogLevel::kInfo);
std::atomic<int> g_level{kUnresolved};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

// "2026-08-07 14:03:21.482" — wall-clock with millisecond resolution, local
// time, so log lines line up with checkpoint mtimes and external monitors.
std::string WallClockStamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm tm_buf{};
  localtime_r(&seconds, &tm_buf);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                tm_buf.tm_year + 1900, tm_buf.tm_mon + 1, tm_buf.tm_mday,
                tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
                static_cast<int>(millis));
  return buf;
}

}  // namespace

LogLevel GetLogLevel() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level == kUnresolved) {
    // Benign race: concurrent first calls resolve identically.
    g_level.store(kDefault, std::memory_order_relaxed);
    const auto from_env = env::ReadChoice(
        env::Knob::kLogLevel, {"debug", "info", "warn", "error"});
    level = from_env ? static_cast<int>(*from_env) : kDefault;
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(level);
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // [LEVEL 2026-08-07 14:03:21.482 t0 file:line] — t<N> is the dense
  // process-local thread id shared with the tracer's Chrome tid.
  stream_ << "[" << LevelName(level) << " " << WallClockStamp() << " t"
          << trace::CurrentThreadId() << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  std::cerr << stream_.str();
  (void)level_;
}

}  // namespace internal
}  // namespace emba
