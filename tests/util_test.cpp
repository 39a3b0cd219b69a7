// Unit and property tests for pg::util -- RNG, interpolation, statistics,
// CSV, tables, and error macros.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/env.h"
#include "util/error.h"
#include "util/interp.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace pg::util {
namespace {

// ---------------------------------------------------------------- error.h

TEST(ErrorTest, CheckThrowsInvalidArgument) {
  EXPECT_THROW(PG_CHECK(false, "boom"), std::invalid_argument);
}

TEST(ErrorTest, CheckPassesOnTrue) {
  EXPECT_NO_THROW(PG_CHECK(true, "fine"));
}

TEST(ErrorTest, AssertThrowsLogicError) {
  EXPECT_THROW(PG_ASSERT(false, "broken"), std::logic_error);
}

TEST(ErrorTest, CheckMessageIsTheNoteAlone) {
  try {
    PG_CHECK(1 == 2, "the note");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "the note");
  }
}

// ------------------------------------------------------------------ rng.h

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformRangeRejectsEmptyInterval) {
  Rng rng(7);
  EXPECT_THROW((void)rng.uniform(1.0, 1.0), std::invalid_argument);
}

TEST(RngTest, UniformIndexCoversAllValues) {
  Rng rng(11);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(RngTest, UniformIndexZeroThrows) {
  Rng rng(11);
  EXPECT_THROW((void)rng.uniform_index(0), std::invalid_argument);
}

/// uniform_index before its one-division fast path: the rejection limit
/// first, then draw until a draw falls below it. Counts every draw.
std::uint64_t reference_uniform_index(Xoshiro256pp& gen, std::uint64_t n,
                                      std::uint64_t& draws) {
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x;
  do {
    x = gen.next();
    ++draws;
  } while (x >= limit);
  return x % n;
}

TEST(RngTest, UniformIndexMatchesRejectionReference) {
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  for (const std::uint64_t seed : {5, 77}) {
    for (const std::uint64_t n :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7},
          std::uint64_t{1400}, (std::uint64_t{1} << 32) + 1, kTwo63,
          kTwo63 + 1, UINT64_MAX - 1, UINT64_MAX}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " n " + std::to_string(n));
      Rng rng(seed);
      Xoshiro256pp reference(seed);
      std::uint64_t draws = 0;
      const int calls = 500;
      for (int i = 0; i < calls; ++i) {
        ASSERT_EQ(rng.uniform_index(n),
                  reference_uniform_index(reference, n, draws));
        // Both took the same number of generator steps: the full-range
        // uniform_int is one raw draw.
        ASSERT_EQ(rng.uniform_int(LLONG_MIN, LLONG_MAX),
                  static_cast<long long>(reference.next()));
      }
      // 2^63 + 1 rejects draws from 2^63 + 1 up, about half of them, so
      // the path that computes the limit runs.
      if (n == kTwo63 + 1) {
        EXPECT_GT(draws, calls + calls / 4);
      }
    }
  }

  // Three consecutive shuffles of 1,400 indices, as SGD draws its epochs.
  Rng rng(9);
  Xoshiro256pp reference(9);
  std::vector<std::size_t> order(1400);
  std::vector<std::size_t> expected(1400);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = expected[i] = i;
  std::uint64_t draws = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    rng.shuffle(order);
    for (std::size_t i = expected.size(); i > 1; --i) {
      std::swap(expected[i - 1],
                expected[reference_uniform_index(reference, i, draws)]);
    }
    ASSERT_EQ(order, expected) << "epoch " << epoch;
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const long long v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);

  // Spans above LLONG_MAX: 2^63 + 1 values, then all 2^64, which is one
  // raw draw per call.
  bool saw_low_half = false;
  bool saw_high_half = false;
  for (int i = 0; i < 200; ++i) {
    const long long v = rng.uniform_int(-1, LLONG_MAX);
    EXPECT_GE(v, -1);
    saw_low_half |= (v < (1LL << 62));
    saw_high_half |= (v >= (1LL << 62));
  }
  EXPECT_TRUE(saw_low_half);
  EXPECT_TRUE(saw_high_half);

  Rng full(21);
  Xoshiro256pp raw(21);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const long long v = full.uniform_int(LLONG_MIN, LLONG_MAX);
    EXPECT_EQ(v, static_cast<long long>(raw.next()));
    saw_negative |= (v < 0);
    saw_positive |= (v > 0);
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NormalScaledMoments) {
  Rng rng(19);
  const int n = 30000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, NormalRejectsNegativeSd) {
  Rng rng(19);
  EXPECT_THROW((void)rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(23);
  const int n = 30000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(RngTest, ExponentialPositive) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(RngTest, LognormalPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(37);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, CategoricalRejectsAllZero) {
  Rng rng(37);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(w), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  const auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 20u);
  for (std::size_t i : s) EXPECT_LT(i, 50u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(43);
  const auto s = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementRejectsOverdraw) {
  Rng rng(43);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4),
               std::invalid_argument);
}

TEST(RngTest, ForkDecorrelatesStreams) {
  Rng base(47);
  Rng a = base.fork(1);
  Rng b = base.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng base(47);
  Rng a = base.fork(9);
  Rng b = base.fork(9);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(XoshiroTest, KnownSeedProducesStableStream) {
  // Regression guard: the stream below must never change, or every
  // experiment in EXPERIMENTS.md silently loses reproducibility.
  Xoshiro256pp gen(42);
  const std::uint64_t first = gen.next();
  Xoshiro256pp gen2(42);
  EXPECT_EQ(gen2.next(), first);
  EXPECT_NE(gen.next(), first);
}

// --------------------------------------------------------------- interp.h

TEST(PiecewiseLinearTest, ExactAtKnots) {
  PiecewiseLinear f({0.0, 1.0, 2.0}, {5.0, 7.0, 3.0});
  EXPECT_DOUBLE_EQ(f(0.0), 5.0);
  EXPECT_DOUBLE_EQ(f(1.0), 7.0);
  EXPECT_DOUBLE_EQ(f(2.0), 3.0);
}

TEST(PiecewiseLinearTest, LinearBetweenKnots) {
  PiecewiseLinear f({0.0, 2.0}, {0.0, 4.0});
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(1.5), 3.0);
}

TEST(PiecewiseLinearTest, ClampedOutsideDomain) {
  PiecewiseLinear f({1.0, 2.0}, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(f(0.0), 10.0);
  EXPECT_DOUBLE_EQ(f(3.0), 20.0);
}

TEST(PiecewiseLinearTest, RejectsNonIncreasingKnots) {
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(PiecewiseLinear({1.0, 0.0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(PiecewiseLinearTest, RejectsSizeMismatch) {
  EXPECT_THROW(PiecewiseLinear({0.0, 1.0, 2.0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(PiecewiseLinearTest, RejectsSingleKnot) {
  EXPECT_THROW(PiecewiseLinear({0.0}, {1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- stats.h

TEST(StatsTest, MeanAndVariance) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(variance(v), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, MedianSingleElement) {
  EXPECT_DOUBLE_EQ(median({42.0}), 42.0);
}

TEST(StatsTest, QuantileEndpointsAndMidpoint) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.0);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.3), 3.0);
}

TEST(StatsTest, EmptyInputsThrow) {
  EXPECT_THROW((void)mean({}), std::invalid_argument);
  EXPECT_THROW((void)median({}), std::invalid_argument);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)variance({1.0}), std::invalid_argument);
}

TEST(EmpiricalCdfTest, StepFunctionValues) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(9.0), 1.0);
}

TEST(EmpiricalCdfTest, InverseIsLeftInverse) {
  EmpiricalCdf cdf({5.0, 1.0, 3.0});  // sorted internally
  EXPECT_DOUBLE_EQ(cdf.inverse(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.inverse(0.34), 3.0);
}

TEST(EmpiricalCdfTest, InverseSurvivalRoundTrip) {
  // For the radius<->percentile maps: inverse(1-p) must keep exactly the
  // (1-p) mass at or below the returned radius.
  EmpiricalCdf cdf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  for (double p : {0.1, 0.2, 0.3, 0.5}) {
    const double r = cdf.inverse(1.0 - p);
    EXPECT_NEAR(1.0 - cdf(r), p, 0.10001);
    EXPECT_LE(1.0 - cdf(r), p + 1e-12);
  }
}

// ------------------------------------------------------------------ csv.h

TEST(CsvTest, ParsesSimpleNumericCsv) {
  const auto rows = parse_numeric_csv("1,2,3\n4,5,6\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0][2], 3.0);
  EXPECT_DOUBLE_EQ(rows[1][0], 4.0);
}

TEST(CsvTest, SkipsBlankLinesAndCrLf) {
  const auto rows = parse_numeric_csv("1,2\r\n\n3,4\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[1][1], 4.0);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_THROW((void)parse_numeric_csv("1,2\n3\n"), std::invalid_argument);
}

TEST(CsvTest, RejectsNonNumeric) {
  EXPECT_THROW((void)parse_numeric_csv("1,abc\n"), std::invalid_argument);
}

TEST(CsvTest, MissingFileThrowsAndExistsIsFalse) {
  EXPECT_THROW((void)load_numeric_csv("/nonexistent/x.csv"),
               std::runtime_error);
  EXPECT_FALSE(file_exists("/nonexistent/x.csv"));
}

// ---------------------------------------------------------------- table.h

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"name", "v"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TableTest, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumericRowFormatting) {
  TextTable t({"x"});
  t.add_numeric_row({1.23456}, 2);
  EXPECT_NE(t.str().find("1.23"), std::string::npos);
}

TEST(FormatTest, PercentFormatting) {
  EXPECT_EQ(format_percent(0.058), "5.8%");
  EXPECT_EQ(format_percent(0.512), "51.2%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch w;
  EXPECT_GE(w.elapsed_seconds(), 0.0);
  EXPECT_GE(w.elapsed_ms(), 0.0);
}

// -------------------------------------------------------------- strings.h

TEST(StringsTest, JsonEscapePinsTheTable) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("\""), "\\\"");
  EXPECT_EQ(json_escape("\\"), "\\\\");
  EXPECT_EQ(json_escape("\n"), "\\n");
  EXPECT_EQ(json_escape("\r"), "\\r");
  EXPECT_EQ(json_escape("\t"), "\\t");
  EXPECT_EQ(json_escape("\x01"), "\\u0001");
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  // Bytes >= 0x80 (UTF-8) and everything else >= 0x20 pass through.
  EXPECT_EQ(json_escape("\x80\xc3\xa9/ ~"), "\x80\xc3\xa9/ ~");
}

// ------------------------------------------------------------------ env.h

TEST(EnvTest, FallsBackWhenUnsetOrEmpty) {
  ASSERT_EQ(unsetenv("PG_TEST_KNOB"), 0);
  EXPECT_EQ(env_string("PG_TEST_KNOB", "dflt"), "dflt");
  ASSERT_EQ(setenv("PG_TEST_KNOB", "", 1), 0);
  EXPECT_EQ(env_string("PG_TEST_KNOB", "dflt"), "dflt");
  ASSERT_EQ(unsetenv("PG_TEST_KNOB"), 0);
}

TEST(EnvTest, ParsesSetValues) {
  ASSERT_EQ(setenv("PG_TEST_KNOB", "123", 1), 0);
  EXPECT_EQ(env_string("PG_TEST_KNOB", "dflt"), "123");
  ASSERT_EQ(unsetenv("PG_TEST_KNOB"), 0);
}

}  // namespace
}  // namespace pg::util
