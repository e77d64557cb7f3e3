#include "util/env.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <vector>

#include "util/logging.h"
#include "util/strings.h"

namespace emba {
namespace env {
namespace {

constexpr int kKnobCount = static_cast<int>(Knob::kCount);

constexpr const char* kNames[kKnobCount] = {
    "EMBA_SIMD",        "EMBA_INT8",         "EMBA_NUM_THREADS",
    "EMBA_LOG_LEVEL",   "EMBA_METRICS_OUT",  "EMBA_TRACE_OUT",
    "EMBA_OBS_PORT",    "EMBA_RTRACE",       "EMBA_ACCESS_LOG",
    "EMBA_TRAIN_EVENTS", "EMBA_NAN_ABORT",   "EMBA_ATTN_STATS",
    "EMBA_BENCH_SCALE", "EMBA_BENCH_ROWS",
};

std::atomic<bool> g_warned[kKnobCount];

// Parses the set, non-empty value of `knob`; a malformed one warns once per
// knob (`expected` describes the accepted values) and reads as not set.
template <typename Parse>
auto Read(Knob knob, const std::string& expected, Parse parse) {
  const char* value = Raw(knob);
  decltype(parse(value)) parsed;
  if (value == nullptr || value[0] == '\0') return parsed;
  parsed = parse(value);
  if (!parsed && !g_warned[static_cast<int>(knob)].exchange(true)) {
    EMBA_LOG(WARN) << "ignoring " << Name(knob) << "=" << value
                   << " (expected " << expected << ")";
  }
  return parsed;
}

// std::from_chars over all of `text`, or nothing.
template <typename T>
std::optional<T> FromChars(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

const char* Name(Knob knob) { return kNames[static_cast<int>(knob)]; }

const char* Raw(Knob knob) { return std::getenv(Name(knob)); }

std::optional<bool> ParseBool(std::string_view text) {
  // The three off spellings, then the three on spellings.
  const auto i = ParseChoice(text, {"off", "0", "false", "on", "1", "true"});
  if (!i) return std::nullopt;
  return *i >= 3;
}

std::optional<int64_t> ParseInt(std::string_view text, int64_t lo,
                                int64_t hi) {
  const auto value = FromChars<int64_t>(text);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text, double lo,
                                  double hi) {
  const auto value = FromChars<double>(text);
  if (!value || !(*value >= lo && *value <= hi)) return std::nullopt;  // NaN
  return value;
}

std::optional<size_t> ParseChoice(std::string_view text, Choices choices) {
  const std::string lower = AsciiToLower(text);
  size_t i = 0;
  for (std::string_view choice : choices) {
    if (lower == choice) return i;
    ++i;
  }
  return std::nullopt;
}

std::optional<bool> ReadBool(Knob knob) {
  return Read(knob, "on/1/true or off/0/false", ParseBool);
}

std::optional<int64_t> ReadInt(Knob knob, int64_t lo, int64_t hi) {
  return Read(knob,
              "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]",
              [&](std::string_view text) { return ParseInt(text, lo, hi); });
}

std::optional<size_t> ReadChoice(Knob knob, Choices choices) {
  const std::vector<std::string> names(choices.begin(), choices.end());
  return Read(knob, Join(names, "|"), [&](std::string_view text) {
    return ParseChoice(text, choices);
  });
}

std::optional<std::string> ReadString(Knob knob) {
  return Read(knob, "", [](std::string_view text) {
    return std::optional<std::string>(text);
  });
}

}  // namespace env
}  // namespace emba
