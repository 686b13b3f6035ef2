#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace metadock::util {
namespace {

TEST(StatAccumulator, EmptyIsWellDefined) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(StatAccumulator, SingleValue) {
  StatAccumulator s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatAccumulator, KnownMoments) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StatAccumulator, MergeMatchesSequential) {
  StatAccumulator all, a, b;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatAccumulator, MergeWithEmptyIsIdentity) {
  StatAccumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  EXPECT_EQ(a.count(), 2u);

  StatAccumulator b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2u);
}

TEST(StatAccumulator, StddevIsSqrtVariance) {
  StatAccumulator s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(s.variance()));
}

TEST(StatAccumulator, NegativeValues) {
  StatAccumulator s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

// Nearest-rank percentile, table-driven over the edge shapes that bit the
// bench reporting: one sample, two samples, exact-boundary ranks, unsorted
// input, duplicated values.
struct PercentileCase {
  const char* name;
  std::vector<double> samples;
  double p;
  double expected;
};

// Print a case by its name.  gtest appends the printed parameter to every
// listed test name, and the default byte dump would carry the `name` and
// `samples` pointers, which differ from one build to the next.
void PrintTo(const PercentileCase& c, std::ostream* os) { *os << c.name; }

class PercentileTable : public ::testing::TestWithParam<PercentileCase> {};

TEST_P(PercentileTable, NearestRank) {
  const PercentileCase& c = GetParam();
  EXPECT_DOUBLE_EQ(percentile(c.samples, c.p), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Stats, PercentileTable,
    ::testing::Values(
        PercentileCase{"one_sample_p0", {42.0}, 0.0, 42.0},
        PercentileCase{"one_sample_p50", {42.0}, 50.0, 42.0},
        PercentileCase{"one_sample_p100", {42.0}, 100.0, 42.0},
        PercentileCase{"two_samples_min", {7.0, 3.0}, 0.0, 3.0},
        PercentileCase{"two_samples_median", {7.0, 3.0}, 50.0, 3.0},
        PercentileCase{"two_samples_median_plus", {7.0, 3.0}, 50.1, 7.0},
        PercentileCase{"two_samples_max", {7.0, 3.0}, 100.0, 7.0},
        PercentileCase{"unsorted_p25", {9.0, 1.0, 5.0, 3.0}, 25.0, 1.0},
        PercentileCase{"unsorted_p75", {9.0, 1.0, 5.0, 3.0}, 75.0, 5.0},
        PercentileCase{"exact_boundary_p20_of_five", {1.0, 2.0, 3.0, 4.0, 5.0}, 20.0, 1.0},
        PercentileCase{"just_past_boundary", {1.0, 2.0, 3.0, 4.0, 5.0}, 20.1, 2.0},
        PercentileCase{"duplicates", {2.0, 2.0, 2.0, 8.0}, 75.0, 2.0},
        PercentileCase{"negative_values", {-3.0, -1.0, -2.0}, 100.0, -1.0}),
    [](const ::testing::TestParamInfo<PercentileCase>& info) { return info.param.name; });

TEST(Percentile, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), std::invalid_argument);
}

TEST(Percentile, OutOfRangePThrows) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)percentile(one, -0.1), std::invalid_argument);
  EXPECT_THROW((void)percentile(one, 100.1), std::invalid_argument);
}

TEST(Percentile, DoesNotMutateInput) {
  const std::vector<double> samples{5.0, 1.0, 3.0};
  (void)percentile(samples, 50.0);
  EXPECT_EQ(samples[0], 5.0);
  EXPECT_EQ(samples[1], 1.0);
  EXPECT_EQ(samples[2], 3.0);
}

}  // namespace
}  // namespace metadock::util
