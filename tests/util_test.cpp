// Tests for src/util: RNG determinism and distributions, statistics,
// tables, CLI parsing, logging, contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace tcsa {
namespace {

// ---------------------------------------------------------------- contracts

TEST(Contracts, RequireThrowsInvalidArgument) {
  EXPECT_THROW(TCSA_REQUIRE(false, "boom"), std::invalid_argument);
}

TEST(Contracts, AssertThrowsLogicError) {
  EXPECT_THROW(TCSA_ASSERT(false, "boom"), std::logic_error);
}

TEST(Contracts, PassingChecksDoNothing) {
  EXPECT_NO_THROW(TCSA_REQUIRE(true, ""));
  EXPECT_NO_THROW(TCSA_ASSERT(1 + 1 == 2, ""));
}

TEST(Contracts, MessageIsPropagated) {
  try {
    TCSA_REQUIRE(false, "the specific reason");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("the specific reason"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng rng(7);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i)
    ++counts[rng.uniform_int(0, kBuckets - 1)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Rng, Uniform01InHalfOpenUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(5);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  OnlineStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(17);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(19);
  OnlineStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsOutOfRangeP) {
  Rng rng(1);
  EXPECT_THROW(rng.bernoulli(-0.1), std::invalid_argument);
  EXPECT_THROW(rng.bernoulli(1.1), std::invalid_argument);
}

TEST(Rng, ForkedChildrenAreIndependentAndDeterministic) {
  Rng parent1(99), parent2(99);
  Rng childA1 = parent1.fork(1);
  Rng childA2 = parent2.fork(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(childA1(), childA2());

  Rng parent3(99);
  Rng c1 = parent3.fork(1);
  Rng parent4(99);
  Rng c2 = parent4.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (c1() == c2()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(DiscreteSampler, MatchesWeightsStatistically) {
  Rng rng(31);
  const DiscreteSampler sampler({1.0, 2.0, 3.0, 4.0});
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.sample(rng)];
  for (int k = 0; k < 4; ++k)
    EXPECT_NEAR(counts[k] / static_cast<double>(kDraws), (k + 1) / 10.0, 0.01);
}

TEST(DiscreteSampler, ZeroWeightNeverSampled) {
  Rng rng(37);
  const DiscreteSampler sampler({0.0, 1.0, 0.0});
  for (int i = 0; i < 10000; ++i) EXPECT_EQ(sampler.sample(rng), 1u);
}

TEST(DiscreteSampler, SingleBucket) {
  Rng rng(37);
  const DiscreteSampler sampler({5.0});
  EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(DiscreteSampler, RejectsDegenerateWeights) {
  EXPECT_THROW(DiscreteSampler({}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({0.0}), std::invalid_argument);
  EXPECT_THROW(DiscreteSampler({-1.0, 2.0}), std::invalid_argument);
}

TEST(ZipfWeights, ThetaZeroIsUniform) {
  const auto w = zipf_weights(5, 0.0);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(ZipfWeights, DecreasingInRank) {
  const auto w = zipf_weights(10, 0.8);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
}

TEST(ZipfWeights, RejectsBadArgs) {
  EXPECT_THROW(zipf_weights(0, 1.0), std::invalid_argument);
  EXPECT_THROW(zipf_weights(5, -1.0), std::invalid_argument);
}

// -------------------------------------------------------------------- stats

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, left, right;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    all.add(v);
    (i < 500 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats s, empty;
  s.add(1.0);
  s.add(3.0);
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(OnlineStats, MergeEmptyIntoEmptyStaysEmpty) {
  OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(OnlineStats, MergeNonEmptyIntoEmptyCopiesExtremes) {
  // The Chan update divides by the combined count; an empty left side must
  // adopt the right side's min/max rather than its zero-initialised fields.
  OnlineStats empty, s;
  s.add(-7.0);
  s.add(13.0);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(empty.min(), -7.0);
  EXPECT_DOUBLE_EQ(empty.max(), 13.0);
  EXPECT_NEAR(empty.variance(), 200.0, 1e-12);  // ((-10)^2 + 10^2) / (2-1)
}

TEST(OnlineStats, SingleSampleVarianceIsZero) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);  // unbiased: undefined below 2 samples
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, MergeTwoSingletonsMatchesSequential) {
  // Edge of the Chan update: both sides have m2 == 0, so the whole variance
  // comes from the cross term.
  OnlineStats a, b, all;
  a.add(2.0);
  b.add(6.0);
  all.add(2.0);
  all.add(6.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.variance(), all.variance());
  EXPECT_DOUBLE_EQ(a.variance(), 8.0);  // ((2-4)^2 + (6-4)^2) / 1
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, QuantileIsNearestRank) {
  // Two samples: no interpolation — every q up to 1/2 reads the lower one.
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.3), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.51), 10.0);
}

TEST(SampleSet, AddAfterQuantileResorts) {
  SampleSet s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(SampleSet, EmptyThrows) {
  SampleSet s;
  EXPECT_THROW(s.mean(), std::invalid_argument);
  EXPECT_THROW(s.quantile(0.5), std::invalid_argument);
}

TEST(NearestRank, MatchesThePerfbenchDefinition) {
  // The vectors perfbench/tests/test_perfbench.py pins for run.py's
  // percentile (q in percent there): the C++ tree and the benchmark share
  // one p99.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_EQ(nearest_rank(hundred, 0.50), 50.0);
  EXPECT_EQ(nearest_rank(hundred, 0.99), 99.0);
  EXPECT_EQ(nearest_rank(hundred, 1.0), 100.0);
  std::vector<double> reversed(hundred.rbegin(), hundred.rend());
  EXPECT_EQ(nearest_rank(reversed, 0.01), 1.0);
  std::vector<double> three{3, 1, 2};
  EXPECT_EQ(nearest_rank(three, 0.50), 2.0);
  std::vector<double> four{4, 1, 3, 2};
  EXPECT_EQ(nearest_rank(four, 0.50), 2.0);
  std::vector<double> single{7.5};
  EXPECT_EQ(nearest_rank(single, 0.99), 7.5);
  std::vector<double> pair{10, 20};
  EXPECT_EQ(nearest_rank(pair, 0.001), 10.0);
}

TEST(NearestRank, RankClampsToTheSample) {
  EXPECT_EQ(nearest_rank_position(0.0, 5), 1u);
  EXPECT_EQ(nearest_rank_position(1.0, 5), 5u);
  EXPECT_EQ(nearest_rank_position(0.2, 5), 1u);
  EXPECT_EQ(nearest_rank_position(0.21, 5), 2u);
  std::vector<std::int64_t> ints{9, 7, 8};
  EXPECT_EQ(nearest_rank(ints, 0.0), 7);
  EXPECT_EQ(nearest_rank(ints, 1.0), 9);
  std::vector<double> empty;
  EXPECT_THROW(nearest_rank(empty, 0.5), std::invalid_argument);
  std::vector<double> one{1.0};
  EXPECT_THROW(nearest_rank(one, 1.5), std::invalid_argument);
}

// -------------------------------------------------------------------- table

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.begin_row().add("alpha").add(std::int64_t{1});
  t.begin_row().add("b").add(22.5, 1);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.5"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.begin_row().add("plain").add("with,comma");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
}

TEST(Table, CsvQuotesQuotes) {
  Table t({"a"});
  t.begin_row().add("say \"hi\"");
  EXPECT_NE(t.to_csv().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, MarkdownShape) {
  Table t({"x", "y"});
  t.begin_row().add(1).add(2);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(Table, CellAccess) {
  Table t({"a", "b"});
  t.begin_row().add("u").add("v");
  EXPECT_EQ(t.cell(0, 1), "v");
  EXPECT_THROW(t.cell(1, 0), std::invalid_argument);
  EXPECT_THROW(t.cell(0, 2), std::invalid_argument);
}

TEST(Table, OverfilledRowThrows) {
  Table t({"only"});
  t.begin_row().add("x");
  EXPECT_THROW(t.add("y"), std::invalid_argument);
}

TEST(Table, IncompleteRowDetectedOnNextBeginRow) {
  Table t({"a", "b"});
  t.begin_row().add("x");
  EXPECT_THROW(t.begin_row(), std::invalid_argument);
}

TEST(Table, DoublePrecisionControl) {
  Table t({"v"});
  t.begin_row().add(1.23456, 2);
  EXPECT_EQ(t.cell(0, 0), "1.23");
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesAllForms) {
  Cli cli("prog", "test");
  cli.add_int("count", 10, "a count");
  cli.add_double("rate", 0.5, "a rate");
  cli.add_string("mode", "fast", "a mode");
  cli.add_flag("verbose", "talk more");
  const char* argv[] = {"prog", "--count", "42", "--rate=1.25", "--verbose",
                        "--mode", "slow"};
  ASSERT_TRUE(cli.parse(7, argv));
  EXPECT_EQ(cli.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.25);
  EXPECT_EQ(cli.get_string("mode"), "slow");
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, DefaultsSurviveEmptyArgv) {
  Cli cli("prog", "test");
  cli.add_int("count", 10, "a count");
  cli.add_flag("verbose", "talk");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("count"), 10);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, UnknownOptionThrows) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, MalformedIntThrows) {
  Cli cli("prog", "test");
  cli.add_int("n", 1, "n");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(cli.parse(3, argv), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("prog", "test");
  cli.add_int("n", 1, "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, FlagWithValueThrows) {
  Cli cli("prog", "test");
  cli.add_flag("f", "flag");
  const char* argv[] = {"prog", "--f=1"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, HelpReturnsFalseAndLists) {
  Cli cli("prog", "summary text");
  cli.add_int("n", 1, "the n option");
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(cli.parse(2, argv));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("summary text"), std::string::npos);
  EXPECT_NE(out.find("--n"), std::string::npos);
}

// --------------------------------------------------------------------- text
//
// src/ formats without iostreams; std::ostringstream is the oracle that
// every value still comes out byte for byte as the stream printed it.

// The log sink is a plain function; emit() calls it under its lock, so
// appending to one string needs no lock of its own.
std::string g_log_lines;
void capture_log(std::string_view line) { g_log_lines += line; }

template <typename T>
std::string streamed(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// What TCSA_LOG(kInfo) << value emits, without the prefix and newline.
template <typename T>
std::string logged(const T& value) {
  g_log_lines.clear();
  set_log_sink(capture_log);
  set_log_level(LogLevel::kInfo);
  TCSA_LOG(kInfo) << value;
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  const std::string prefix = "[tcsa INFO] ";
  EXPECT_EQ(g_log_lines.compare(0, prefix.size(), prefix), 0) << g_log_lines;
  EXPECT_EQ(g_log_lines.back(), '\n');
  return g_log_lines.substr(prefix.size(),
                            g_log_lines.size() - prefix.size() - 1);
}

template <typename T>
void expect_integer_like_the_stream() {
  using limits = std::numeric_limits<T>;
  for (const T v : {limits::min(), limits::max(), T{0}, T{1}}) {
    EXPECT_EQ(str_cat(v), streamed(v)) << +v;
    EXPECT_EQ(logged(v), streamed(v)) << +v;
    // Promoted, the 8-bit types take the integer path too.
    EXPECT_EQ(str_cat(+v), streamed(+v));
  }
}

TEST(Text, IntegersFormatLikeTheStream) {
  expect_integer_like_the_stream<std::int8_t>();
  expect_integer_like_the_stream<std::uint8_t>();
  expect_integer_like_the_stream<std::int16_t>();
  expect_integer_like_the_stream<std::uint16_t>();
  expect_integer_like_the_stream<std::int32_t>();
  expect_integer_like_the_stream<std::uint32_t>();
  expect_integer_like_the_stream<std::int64_t>();
  expect_integer_like_the_stream<std::uint64_t>();
  expect_integer_like_the_stream<long long>();
  expect_integer_like_the_stream<unsigned long long>();
  expect_integer_like_the_stream<std::size_t>();
  for (const bool b : {false, true}) {
    EXPECT_EQ(str_cat(b), streamed(b));
    EXPECT_EQ(logged(b), streamed(b));
  }
}

const double kDoubles[] = {0.0,
                           -0.0,
                           0.1,
                           1e-7,
                           123456789.0,
                           1e21,
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           1.0 / 3.0,
                           -2.5,
                           99999.95,
                           1e300,
                           -1.5e-300};

TEST(Text, DoublesFormatLikeTheStreamDefault) {
  for (const double v : kDoubles) {
    EXPECT_EQ(str_cat(v), streamed(v));
    EXPECT_EQ(logged(v), streamed(v));
    EXPECT_EQ(str_cat(static_cast<float>(v)), streamed(static_cast<float>(v)));
  }
}

TEST(Text, FixedMatchesStdFixedAtEveryPrecision) {
  for (const double v : kDoubles) {
    for (int precision = 0; precision <= 6; ++precision) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(precision) << v;
      EXPECT_EQ(str_cat(fixed(v, precision)), os.str())
          << v << " at precision " << precision;
      EXPECT_EQ(logged(fixed(v, precision)), os.str());
    }
  }
}

TEST(Text, StringsCharsAndHexLikeTheStream) {
  const std::string text = "a string";
  EXPECT_EQ(str_cat(text), streamed(text));
  EXPECT_EQ(logged(text), streamed(text));
  EXPECT_EQ(str_cat("literal"), streamed("literal"));
  EXPECT_EQ(logged("literal"), streamed("literal"));
  EXPECT_EQ(str_cat('x'), streamed('x'));
  EXPECT_EQ(logged('x'), streamed('x'));
  EXPECT_EQ(str_cat(std::string_view("view")), streamed("view"));
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{255}, std::uint64_t{0xdeadbeef},
        std::numeric_limits<std::uint64_t>::max()}) {
    std::ostringstream os;
    os << std::hex << v;
    EXPECT_EQ(str_cat(hex(v)), os.str());
  }
  EXPECT_EQ(str_cat("a", 1, ' ', 2.5, std::string("b")), "a1 2.5b");
}

TEST(Text, PadMatchesSetw) {
  for (const std::size_t width : {0u, 1u, 3u, 9u}) {
    const auto setw = [width](const auto& value) {
      std::ostringstream os;
      os << std::setw(static_cast<int>(width)) << value;
      return os.str();
    };
    EXPECT_EQ(str_cat(pad(width, 42)), setw(42));
    EXPECT_EQ(str_cat(pad(width, -1234567)), setw(-1234567));
    EXPECT_EQ(str_cat(pad(width, "abcd")), setw("abcd"));
    EXPECT_EQ(str_cat(pad(width, '.')), setw('.'));
    std::ostringstream os;
    os << std::fixed << std::setprecision(2) << std::setw(static_cast<int>(width))
       << 3.14159;
    EXPECT_EQ(str_cat(pad(width, fixed(3.14159, 2))), os.str());
  }
}

TEST(Text, TableToStringPadsLikeSetw) {
  Table t({"name", "v"});
  t.begin_row().add("alpha").add(std::int64_t{-1});
  t.begin_row().add("b").add(22.5, 1);
  t.begin_row().add("").add(std::uint64_t{123456});
  std::ostringstream os;
  const auto row = [&os](const std::string& a, const std::string& b) {
    os << std::setw(5) << a << "  " << std::setw(6) << b << '\n';
  };
  row("name", "v");
  os << std::string(13, '-') << '\n';
  row("alpha", "-1");
  row("b", "22.5");
  row("", "123456");
  EXPECT_EQ(t.to_string(), os.str());
}

TEST(Text, ParseIntPrefixReadsLikeIstream) {
  for (const char* token :
       {"0", "7", "+5", "-5", "+-5", "-+5", "+", "-", "", "12abc", "abc",
        "99999999999999999999", "-9223372036854775808",
        "9223372036854775807", "0x10", "007", "5.5"}) {
    std::istringstream is(token);
    long long expected = 0;
    const bool ok = static_cast<bool>(is >> expected);
    long long value = 0;
    const std::string_view text(token);
    const auto [end, ec] = parse_int_prefix(text, value);
    EXPECT_EQ(ec == std::errc(), ok) << token;
    if (ok) {
      EXPECT_EQ(value, expected) << token;
      is.clear();  // a number that ends the text set eofbit
      EXPECT_EQ(end - text.data(), static_cast<std::ptrdiff_t>(is.tellg()))
          << token;
    }
  }
}

TEST(Text, NextTokenAndNextLineSplitLikeTheStream) {
  const std::string text = " \talpha\vbeta\f gamma\r\n\n delta  ";
  std::istringstream is(text);
  std::vector<std::string> expected;
  for (std::string token; is >> token;) expected.push_back(token);
  std::vector<std::string> got;
  std::string_view rest = text;
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest))
    got.emplace_back(token);
  EXPECT_EQ(got, expected);

  for (const std::string doc : {"", "a", "a\n", "a\n\n", "\n", "a\nb",
                                "a\r\nb\n", "\n\nx"}) {
    std::istringstream lines(doc);
    std::vector<std::string> want;
    for (std::string line; std::getline(lines, line);) want.push_back(line);
    std::vector<std::string> have;
    std::string_view left = doc;
    for (std::string_view line; next_line(left, line);) have.emplace_back(line);
    EXPECT_EQ(have, want) << doc;
  }
}

// ---------------------------------------------------------------------- log

TEST(Log, RespectsLevelAndSink) {
  g_log_lines.clear();
  set_log_sink(capture_log);
  set_log_level(LogLevel::kWarn);
  TCSA_LOG(kDebug) << "hidden";
  TCSA_LOG(kWarn) << "visible " << 42;
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(g_log_lines.find("hidden"), std::string::npos);
  EXPECT_NE(g_log_lines.find("visible 42"), std::string::npos);
  EXPECT_NE(g_log_lines.find("WARN"), std::string::npos);
}

TEST(Log, OffSilencesEverything) {
  g_log_lines.clear();
  set_log_sink(capture_log);
  set_log_level(LogLevel::kOff);
  TCSA_LOG(kError) << "nope";
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);
  EXPECT_TRUE(g_log_lines.empty());
}

TEST(Log, ConcurrentEmittersNeverInterleaveLines) {
  // Regression: emit() used to stream the prefix and message as separate
  // operator<< calls, so lines from work-pool threads could interleave
  // piecewise. Hammer the sink from 8 threads and assert every emitted
  // line survives whole.
  g_log_lines.clear();
  set_log_sink(capture_log);
  set_log_level(LogLevel::kInfo);
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        TCSA_LOG(kInfo) << "thread " << t << " line " << i << " end";
    });
  }
  for (std::thread& thread : threads) thread.join();
  set_log_sink(nullptr);
  set_log_level(LogLevel::kWarn);

  std::istringstream lines(g_log_lines);
  std::string line;
  int total = 0;
  std::vector<int> per_thread(kThreads, 0);
  while (std::getline(lines, line)) {
    int t = -1, i = -1;
    // Every line must match "[tcsa INFO] thread <t> line <i> end" exactly;
    // any torn or merged write breaks the parse or the trailing check.
    ASSERT_EQ(std::sscanf(line.c_str(), "[tcsa INFO] thread %d line %d end",
                          &t, &i),
              2)
        << "torn line: " << line;
    ASSERT_TRUE(t >= 0 && t < kThreads) << line;
    ASSERT_TRUE(i >= 0 && i < kLines) << line;
    ASSERT_TRUE(line.size() >= 4 && line.compare(line.size() - 4, 4, " end") == 0)
        << "trailing garbage: " << line;
    ++per_thread[static_cast<std::size_t>(t)];
    ++total;
  }
  EXPECT_EQ(total, kThreads * kLines);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread[t], kLines);
}

}  // namespace
}  // namespace tcsa
