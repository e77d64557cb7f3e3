// Unit tests for src/util: Status/Result, Rng, strings, CSV, logging,
// bench-scale knobs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <set>

#include "util/bench_scale.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace emba {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::Invalid("").code(),       Status::OutOfRange("").code(),
      Status::NotFound("").code(),      Status::AlreadyExists("").code(),
      Status::IOError("").code(),       Status::FailedPrecondition("").code(),
      Status::Internal("").code(),      Status::NotImplemented("").code()};
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x"), Status::Invalid("x"));
  EXPECT_FALSE(Status::Invalid("x") == Status::Invalid("y"));
  EXPECT_FALSE(Status::Invalid("x") == Status::NotFound("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

// ---------- Rng ----------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalHasSaneMoments) {
  Rng rng(11);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(21);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

// ---------- strings ----------

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitWhitespaceSkipsRuns) {
  auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(Join(parts, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripAsciiWhitespace("\t\n"), "");
}

TEST(StringsTest, CaseAndAffixHelpers) {
  EXPECT_EQ(AsciiToLower("AbC-3"), "abc-3");
  EXPECT_TRUE(StartsWith("wdc_computers", "wdc_"));
  EXPECT_FALSE(StartsWith("x", "xyz"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
}

TEST(StringsTest, DigitHelpers) {
  EXPECT_TRUE(IsAsciiDigits("0123"));
  EXPECT_FALSE(IsAsciiDigits(""));
  EXPECT_FALSE(IsAsciiDigits("12a"));
  EXPECT_TRUE(ContainsDigit("mz-75e1t0bw"));
  EXPECT_FALSE(ContainsDigit("sandisk"));
}

TEST(StringsTest, Formatting) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(FormatFixed(92.738, 2), "92.74");
}

// ---------- CSV ----------

TEST(CsvTest, ParsesSimpleRows) {
  auto table = ParseCsv("a,b\n1,2\n3,4\n", /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "4");
}

TEST(CsvTest, HandlesQuotedFieldsWithCommasAndQuotes) {
  auto table =
      ParseCsv("\"a,b\",\"say \"\"hi\"\"\"\nplain,2\n", /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "a,b");
  EXPECT_EQ(table->rows[0][1], "say \"hi\"");
}

TEST(CsvTest, HandlesEmbeddedNewline) {
  auto table = ParseCsv("\"line1\nline2\",x\n", /*has_header=*/false);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][0], "line1\nline2");
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  auto table = ParseCsv("\"oops\n", /*has_header=*/false);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, WriteParseRoundTrip) {
  CsvTable table;
  table.header = {"label", "text"};
  table.rows = {{"1", "has, comma"}, {"0", "has \"quote\""}};
  auto parsed = ParseCsv(WriteCsv(table), /*has_header=*/true);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvTest, FileRoundTrip) {
  CsvTable table;
  table.rows = {{"x", "y"}};
  const std::string path = "/tmp/emba_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  auto parsed = ReadCsvFile(path, /*has_header=*/false);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows, table.rows);
  std::remove(path.c_str());
}

// ---------- bench scale ----------

TEST(BenchScaleTest, QuickDefaults) {
  unsetenv("EMBA_BENCH_SCALE");
  BenchScale scale = GetBenchScale();
  EXPECT_FALSE(scale.full);
  EXPECT_GE(scale.seeds, 2);
}

TEST(BenchScaleTest, FullMode) {
  setenv("EMBA_BENCH_SCALE", "full", 1);
  BenchScale scale = GetBenchScale();
  EXPECT_TRUE(scale.full);
  EXPECT_GT(scale.seeds, 2);
  unsetenv("EMBA_BENCH_SCALE");
}

// ---------- env knob reader (util/env.h) ----------

// Sets one knob for the test's lifetime and restores its prior value.
class ScopedKnob {
 public:
  ScopedKnob(env::Knob knob, const char* value) : name_(env::Name(knob)) {
    if (const char* prior = std::getenv(name_)) prior_ = prior;
    setenv(name_, value, 1);
  }
  ~ScopedKnob() {
    if (prior_) {
      setenv(name_, prior_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> prior_;
};

TEST(EnvReaderTest, ParseBoolSpellings) {
  const struct {
    const char* text;
    std::optional<bool> want;
  } cases[] = {
      {"on", true},     {"ON", true},      {"On", true},    {"1", true},
      {"true", true},   {"TRUE", true},    {"True", true},  {"off", false},
      {"OFF", false},   {"Off", false},    {"0", false},    {"false", false},
      {"FALSE", false}, {"False", false},
      // Malformed, including the retired EMBA_SIMD spellings.
      {"bogus", std::nullopt}, {"scalar", std::nullopt},
      {"SCALAR", std::nullopt}, {"avx2", std::nullopt}, {"", std::nullopt},
      {" on", std::nullopt},  {"on ", std::nullopt},   {"2", std::nullopt},
      {"yes", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(env::ParseBool(c.text), c.want) << '"' << c.text << '"';
  }
}

TEST(EnvReaderTest, ParseIntIsWholeStringAndBounded) {
  const struct {
    const char* text;
    std::optional<int64_t> want;
  } cases[] = {
      {"1", 1},
      {"3", 3},
      {"1024", 1024},
      {"0", std::nullopt},     // below the bound
      {"-1", std::nullopt},    // below the bound
      {"1025", std::nullopt},  // above the bound
      {"2abc", std::nullopt},
      {"3x", std::nullopt},
      {"abc", std::nullopt},
      {"", std::nullopt},
      {" 3", std::nullopt},
      {"3 ", std::nullopt},
      {"+3", std::nullopt},
      {"1.5", std::nullopt},
      {"99999999999999999999", std::nullopt},  // overflows int64
  };
  for (const auto& c : cases) {
    EXPECT_EQ(env::ParseInt(c.text, 1, 1024), c.want) << '"' << c.text << '"';
  }
  EXPECT_EQ(env::ParseInt("-5", -10, 10), -5);
}

TEST(EnvReaderTest, ParseDoubleIsWholeStringAndBounded) {
  const struct {
    const char* text;
    std::optional<double> want;
  } cases[] = {
      {"0", 0.0},
      {"0.5", 0.5},
      {"1", 1.0},
      {"1e-1", 0.1},
      {"1.5", std::nullopt},   // above the bound
      {"-0.1", std::nullopt},  // below the bound
      {"abc", std::nullopt},
      {"0.5x", std::nullopt},
      {"", std::nullopt},
      {"nan", std::nullopt},
      {"inf", std::nullopt},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(env::ParseDouble(c.text, 0.0, 1.0), c.want)
        << '"' << c.text << '"';
  }
}

TEST(EnvReaderTest, ParseChoiceIgnoresCase) {
  EXPECT_EQ(env::ParseChoice("warn", {"debug", "info", "warn"}), 2u);
  EXPECT_EQ(env::ParseChoice("WARN", {"debug", "info", "warn"}), 2u);
  EXPECT_EQ(env::ParseChoice("Debug", {"debug", "info", "warn"}), 0u);
  EXPECT_EQ(env::ParseChoice("verbose", {"debug", "info", "warn"}),
            std::nullopt);
  EXPECT_EQ(env::ParseChoice("", {"debug", "info", "warn"}), std::nullopt);
}

TEST(EnvReaderTest, EveryKnobHasOneDistinctName) {
  std::set<std::string> names;
  for (int i = 0; i < static_cast<int>(env::Knob::kCount); ++i) {
    const std::string name = env::Name(static_cast<env::Knob>(i));
    EXPECT_TRUE(StartsWith(name, "EMBA_")) << name;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 14u);
}

TEST(EnvReaderTest, UnsetAndEmptyReadAsNotSet) {
  ScopedKnob threads(env::Knob::kNumThreads, "");
  EXPECT_EQ(env::ReadInt(env::Knob::kNumThreads, 1, 1024), std::nullopt);
  unsetenv("EMBA_NUM_THREADS");
  EXPECT_EQ(env::ReadInt(env::Knob::kNumThreads, 1, 1024), std::nullopt);
  ScopedKnob path(env::Knob::kTraceOut, "");
  EXPECT_EQ(env::ReadString(env::Knob::kTraceOut), std::nullopt);
}

TEST(EnvReaderTest, ReadersParseWellFormedValues) {
  ScopedKnob threads(env::Knob::kNumThreads, "8");
  EXPECT_EQ(env::ReadInt(env::Knob::kNumThreads, 1, 1024), 8);
  ScopedKnob rtrace(env::Knob::kRtrace, "On");
  EXPECT_EQ(env::ReadBool(env::Knob::kRtrace), true);
  ScopedKnob level(env::Knob::kLogLevel, "warn");
  EXPECT_EQ(env::ReadChoice(env::Knob::kLogLevel,
                            {"debug", "info", "warn", "error"}),
            2u);
  ScopedKnob path(env::Knob::kTraceOut, "/tmp/x.json");
  EXPECT_EQ(env::ReadString(env::Knob::kTraceOut), "/tmp/x.json");
}

TEST(EnvReaderTest, MalformedValuesAreIgnoredWithOneWarning) {
  for (const char* bad : {"2abc", "0", "1025"}) {
    ScopedKnob threads(env::Knob::kNumThreads, bad);
    EXPECT_EQ(env::ReadInt(env::Knob::kNumThreads, 1, 1024), std::nullopt)
        << bad;
  }
  ScopedKnob attn(env::Knob::kAttnStats, "bogus");
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(env::ReadBool(env::Knob::kAttnStats), std::nullopt);
  EXPECT_EQ(env::ReadBool(env::Knob::kAttnStats), std::nullopt);
  const std::string log = ::testing::internal::GetCapturedStderr();
  const size_t first = log.find("EMBA_ATTN_STATS=bogus");
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find("EMBA_ATTN_STATS", first + 1), std::string::npos)
      << "warned twice:\n" << log;
}

}  // namespace
}  // namespace emba
