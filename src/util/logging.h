// Minimal leveled logging to stderr. Stream-style:
//   EMBA_LOG(INFO) << "trained " << n << " steps";
// Level is process-global and settable via EMBA_LOG_LEVEL env var
// (debug/info/warn/error, any case) or programmatically.
//
// Line format:
//   [INFO 2026-08-07 14:03:21.482 t0 trainer.cc:412] message
// — level, wall-clock timestamp (local time, ms resolution), dense thread
// id (the same id the tracer uses as the Chrome `tid`), source location.
#pragma once

#include <sstream>
#include <string>

namespace emba {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Process-global minimum level; messages below it are discarded.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

struct LogSink {
  // Swallows the stream when the message is below the active level.
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace emba

#define EMBA_LOG_DEBUG ::emba::LogLevel::kDebug
#define EMBA_LOG_INFO ::emba::LogLevel::kInfo
#define EMBA_LOG_WARN ::emba::LogLevel::kWarn
#define EMBA_LOG_ERROR ::emba::LogLevel::kError

#define EMBA_LOG(severity)                                          \
  (EMBA_LOG_##severity < ::emba::GetLogLevel())                     \
      ? (void)0                                                     \
      : ::emba::internal::LogSink() &                               \
            ::emba::internal::LogMessage(EMBA_LOG_##severity,       \
                                         __FILE__, __LINE__)        \
                .stream()
