// The EMBA_* environment knobs: one list of names, one reader per kind of
// value. Every variable the code reads is an entry of `Knob`, and /buildz
// reports each with its live value, so no knob is read without being
// reported (tools/lint_env_reads.sh rejects any other getenv of EMBA_*).
//
// One strictness for all: unset or empty reads as "not set"; bools accept
// on/1/true and off/0/false in any case; integers parse in full and within
// the caller's bounds. A malformed value warns once per knob and then reads
// as "not set", so env wiring never aborts a run. The same parsers check
// the numeric command-line flags of emba_cli and the bench binaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace emba {
namespace env {

enum class Knob : int {
  kSimd,         ///< bool: off forces the scalar kernels
  kInt8,         ///< bool: int8 inference GEMMs
  kNumThreads,   ///< integer: default thread-pool width
  kLogLevel,     ///< debug|info|warn|error
  kMetricsOut,   ///< path: metrics JSON written at exit
  kTraceOut,     ///< path: Chrome trace JSON written at exit
  kObsPort,      ///< integer: observability server port
  kRtrace,       ///< bool: per-request tracing
  kAccessLog,    ///< path: request access log (implies kRtrace)
  kTrainEvents,  ///< path: training event log
  kNanAbort,     ///< bool: exit on the first non-finite loss or gradient
  kAttnStats,    ///< bool: attention-row statistics during training
  kBenchScale,   ///< quick|full: bench experiment scale
  kBenchRows,    ///< comma list: bench dataset rows
  kCount,
};

/// "EMBA_SIMD", "EMBA_INT8", ...
const char* Name(Knob knob);
/// The raw value, or nullptr when unset (for /buildz).
const char* Raw(Knob knob);

std::optional<bool> ParseBool(std::string_view text);
std::optional<int64_t> ParseInt(std::string_view text, int64_t lo, int64_t hi);
std::optional<double> ParseDouble(std::string_view text, double lo, double hi);
/// Index of `text` in `choices`, compared case-insensitively.
using Choices = std::initializer_list<std::string_view>;
std::optional<size_t> ParseChoice(std::string_view text, Choices choices);

/// A numeric command-line flag's value, parsed as above, or InvalidArgument
/// "<flag> requires an integer in [lo, hi], got '<text>'" (for doubles, "a
/// number in [lo, hi]"): the one message every binary prints before exit 1.
Result<int64_t> ParseIntFlag(std::string_view flag, std::string_view text,
                             int64_t lo, int64_t hi);
Result<double> ParseDoubleFlag(std::string_view flag, std::string_view text,
                               double lo, double hi);

std::optional<bool> ReadBool(Knob knob);
std::optional<int64_t> ReadInt(Knob knob, int64_t lo, int64_t hi);
std::optional<size_t> ReadChoice(Knob knob, Choices choices);
/// Any non-empty value: a path or a list.
std::optional<std::string> ReadString(Knob knob);

}  // namespace env
}  // namespace emba
