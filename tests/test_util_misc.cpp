// Unit tests for histogram, table printer, CLI options, timers and the
// retry backoff schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "util/backoff.hpp"
#include "util/histogram.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace g500::util;

// ------------------------------------------------------------ Log2Histogram

TEST(Log2Histogram, EmptyIsZero) {
  Log2Histogram h;
  EXPECT_EQ(h.total_count(), 0u);
  EXPECT_EQ(h.total_sum(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 0u);
}

TEST(Log2Histogram, BucketBoundaries) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  // 0 and 1 share bucket 0; 2,3 in bucket 1; 4 in bucket 2.
  ASSERT_GE(h.buckets().size(), 3u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
}

TEST(Log2Histogram, TracksSumCountMax) {
  Log2Histogram h;
  h.add(10);
  h.add(20);
  h.add(5, 2);  // weighted
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_EQ(h.total_sum(), 40u);
  EXPECT_EQ(h.max_value(), 20u);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
}

TEST(Log2Histogram, MergeCombines) {
  Log2Histogram a;
  Log2Histogram b;
  a.add(1);
  a.add(1000);
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 3u);
  EXPECT_EQ(a.max_value(), 1000u);
  EXPECT_EQ(a.total_sum(), 1008u);
}

TEST(Log2Histogram, MergeIntoEmpty) {
  Log2Histogram a;
  Log2Histogram b;
  b.add(42);
  a.merge(b);
  EXPECT_EQ(a.total_count(), 1u);
  EXPECT_EQ(a.max_value(), 42u);
}

TEST(Log2Histogram, QuantileUpperBoundIsMonotone) {
  Log2Histogram h;
  for (std::uint64_t i = 1; i <= 1024; ++i) h.add(i);
  const auto q25 = h.quantile_upper_bound(0.25);
  const auto q50 = h.quantile_upper_bound(0.5);
  const auto q99 = h.quantile_upper_bound(0.99);
  EXPECT_LE(q25, q50);
  EXPECT_LE(q50, q99);
  EXPECT_GE(q99, 512u);
}

TEST(Log2Histogram, InterpolatedQuantileEmptyAndClamp) {
  Log2Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.add(8);  // single sample: every quantile is within [8, 16) clamped to 8
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 8.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);
}

TEST(Log2Histogram, InterpolatedQuantileTracksExactWithinBinWidth) {
  Log2Histogram h;
  for (std::uint64_t i = 1; i <= 1024; ++i) h.add(i);
  // Exact quantile of 1..1024 is ~q*1024; the estimate may be off by at
  // most the width of the bin it lands in.
  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.99}) {
    const double exact = q * 1024.0;
    const double got = h.quantile(q);
    const double bin_width = std::max(2.0, exact);  // [2^k, 2^(k+1)) width
    EXPECT_NEAR(got, exact, bin_width) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1024.0);  // clamped to the observed max
}

TEST(Log2Histogram, InterpolatedQuantileIsMonotone) {
  Log2Histogram h;
  h.add(1);
  h.add(3, 5);
  h.add(100, 2);
  h.add(4000);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  EXPECT_LE(h.quantile(1.0), static_cast<double>(h.max_value()));
}

TEST(Log2Histogram, InterpolatedQuantileMovesInsideBin) {
  Log2Histogram h;
  // All mass in bin [16, 32): interpolation spreads quantiles across it.
  for (std::uint64_t i = 0; i < 100; ++i) h.add(16 + i % 16);
  const double p10 = h.quantile(0.10);
  const double p90 = h.quantile(0.90);
  EXPECT_GE(p10, 16.0);
  EXPECT_LT(p10, p90);  // uniform-in-bin assumption separates them
  EXPECT_LE(p90, 32.0);
}

TEST(Log2Histogram, SloPercentilesAreOrdered) {
  Log2Histogram h;
  for (std::uint64_t i = 0; i < 500; ++i) h.add(i % 64);
  const auto p = h.slo_percentiles();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_LE(p[0], p[1]);
  EXPECT_LE(p[1], p[2]);
}

TEST(Log2Histogram, ToStringMentionsBuckets) {
  Log2Histogram h;
  h.add(3);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("[2, 3]"), std::string::npos);
}

// Regression: a truncating rank resolved the median of {1, 8, 8} to the
// first sample's bucket (upper bound 1); the q-th sample is the smallest
// rank k >= q * count, so the median is the second sample — bucket [8, 15].
TEST(Log2Histogram, QuantileUpperBoundUsesCeilingRank) {
  Log2Histogram h;
  h.add(1);
  h.add(8);
  h.add(8);
  EXPECT_EQ(h.quantile_upper_bound(0.5), 15u);
  // And the rank-1 sample (any q reaching only the first sample) still
  // resolves to the first bucket.
  EXPECT_EQ(h.quantile_upper_bound(0.25), 1u);
}

// Regression: q == 0 used to fall through with target rank 0 and report
// the first non-empty bucket's *upper* bound; the minimum can be no
// larger than that bucket's lower bound.
TEST(Log2Histogram, QuantileZeroReportsMinimumBucketLowerBound) {
  Log2Histogram h;
  h.add(8);
  h.add(9);
  EXPECT_EQ(h.quantile_upper_bound(0.0), 8u);
}

// Regression: a sample in the top bucket (bit 63 set) made the quantile
// and to_string compute 1 << 64 — shift UB.  The top bucket's upper bound
// saturates at 2^64 - 1 instead.
TEST(Log2Histogram, TopBucketSaturatesInsteadOfShiftOverflow) {
  Log2Histogram h;
  h.add(std::uint64_t{1} << 63);
  EXPECT_EQ(h.quantile_upper_bound(1.0),
            std::numeric_limits<std::uint64_t>::max());
  const std::string s = h.to_string();
  EXPECT_NE(s.find("18446744073709551615"), std::string::npos);
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  Table t({"a", "longheader"});
  t.row().add("xx").add(1);
  t.row().add("y").add(123456);
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("longheader"), std::string::npos);
  EXPECT_NE(s.find("123456"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, TitleIsPrinted) {
  Table t({"x"});
  t.row().add(1);
  const std::string s = t.to_string("my title");
  EXPECT_NE(s.find("== my title =="), std::string::npos);
}

TEST(Table, DoubleFormatting) {
  Table t({"v"});
  t.row().add(3.14159, 2);
  EXPECT_NE(t.to_string().find("3.14"), std::string::npos);
}

TEST(Table, SiFormatting) {
  EXPECT_EQ(si_format(1500.0, 1), "1.5k");
  EXPECT_EQ(si_format(2.5e6, 1), "2.5M");
  EXPECT_EQ(si_format(3.25e9, 2), "3.25G");
  EXPECT_EQ(si_format(1.2e13, 1), "12.0T");
  EXPECT_EQ(si_format(12.0, 0), "12");
}

TEST(Table, RowCellAccess) {
  Table t({"a", "b"});
  t.row().add("p").add("q");
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row_cells(0)[1], "q");
}

// -------------------------------------------------------------- Options

TEST(Options, ParsesSpaceSeparated) {
  const char* argv[] = {"prog", "--scale", "14", "--name", "abc"};
  Options o(5, argv);
  EXPECT_EQ(o.get_int("scale", 0), 14);
  EXPECT_EQ(o.get("name", ""), "abc");
}

TEST(Options, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--delta=0.25"};
  Options o(2, argv);
  EXPECT_DOUBLE_EQ(o.get_double("delta", 0.0), 0.25);
}

TEST(Options, BooleanFlags) {
  const char* argv[] = {"prog", "--verbose", "--quiet"};
  Options o(3, argv);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_TRUE(o.get_bool("quiet", false));
  EXPECT_FALSE(o.get_bool("absent", false));
}

TEST(Options, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  Options o(1, argv);
  EXPECT_EQ(o.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(o.get_double("y", 1.5), 1.5);
  EXPECT_EQ(o.get("z", "dflt"), "dflt");
}

TEST(Options, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--flag", "out.txt"};
  Options o(4, argv);
  // "--flag out.txt" consumes out.txt as the flag value.
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "input.txt");
  EXPECT_EQ(o.get("flag", ""), "out.txt");
}

TEST(Options, MalformedIntThrows) {
  const char* argv[] = {"prog", "--n", "abc"};
  Options o(3, argv);
  EXPECT_THROW((void)o.get_int("n", 0), std::invalid_argument);
}

TEST(Options, HasDetectsPresence) {
  const char* argv[] = {"prog", "--a=1"};
  Options o(2, argv);
  EXPECT_TRUE(o.has("a"));
  EXPECT_FALSE(o.has("b"));
}

// ---------------------------------------------------------------- Timer

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.milliseconds(), 15.0);
  EXPECT_LT(t.seconds(), 5.0);
}

TEST(Timer, ResetRestarts) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.milliseconds(), 15.0);
}

TEST(Accumulator, TracksTotalsAndMax) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.total(), 6.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_EQ(acc.count(), 3u);
  acc.clear();
  EXPECT_EQ(acc.count(), 0u);
}

// ------------------------------------------------------------ BackoffPolicy

TEST(BackoffPolicy, AttemptZeroAndZeroBaseChargeNothing) {
  BackoffPolicy policy;
  EXPECT_EQ(policy.delay(0), 0.0);
  EXPECT_GT(policy.delay(1), 0.0);
  policy.base_seconds = 0.0;
  for (std::uint64_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(policy.delay(attempt), 0.0) << "attempt " << attempt;
  }
}

// The jitter factor of an attempt depends only on (seed, attempt), so a
// policy whose base already sits at the cap reads it off directly: its
// un-jittered delay is kMaxSeconds on every attempt.
TEST(BackoffPolicy, DelaysDoubleToTheCapInsideTheJitterBand) {
  BackoffPolicy policy;
  policy.base_seconds = 0.75;
  BackoffPolicy capped = policy;
  capped.base_seconds = BackoffPolicy::kMaxSeconds;
  double plain = policy.base_seconds;  // un-jittered delay of `attempt`
  for (std::uint64_t attempt = 1; attempt <= 12; ++attempt) {
    const double factor = capped.delay(attempt) / BackoffPolicy::kMaxSeconds;
    EXPECT_GE(factor, 1.0 - BackoffPolicy::kJitter) << "attempt " << attempt;
    EXPECT_LT(factor, 1.0) << "attempt " << attempt;
    const double d = policy.delay(attempt);
    EXPECT_DOUBLE_EQ(d / factor, plain) << "attempt " << attempt;
    EXPECT_GE(d, 0.5 * plain) << "attempt " << attempt;
    EXPECT_LT(d, plain) << "attempt " << attempt;
    plain = std::min(2.0 * plain, 60.0);
  }
  EXPECT_EQ(plain, 60.0);  // the loop reached the cap
}

TEST(BackoffPolicy, OneSeedRepeatsItsSequenceAnotherDoesNot) {
  const auto sequence = [](std::uint64_t seed) {
    BackoffPolicy policy;
    policy.seed = seed;
    std::vector<double> delays;
    for (std::uint64_t attempt = 1; attempt <= 8; ++attempt) {
      delays.push_back(policy.delay(attempt));
    }
    return delays;
  };
  EXPECT_EQ(sequence(0x0b0f), sequence(0x0b0f));
  EXPECT_NE(sequence(0x0b0f), sequence(0x0b10));
}

}  // namespace
