#include "sched/partition.h"

#include <gtest/gtest.h>

#include <vector>

namespace metadock::sched {
namespace {

TEST(Percents, SlowestIsOne) {
  // Eq. 1: Percent = t / t_slowest.
  const auto p = percents_from_times({2.0, 4.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.25);
}

TEST(Percents, TwiceAsFastIsHalf) {
  // "a GPU two times faster than slowest GPU would have Percent = 0.5".
  const auto p = percents_from_times({1.0, 2.0});
  EXPECT_DOUBLE_EQ(p[0], 0.5);
  EXPECT_DOUBLE_EQ(p[1], 1.0);
}

TEST(Percents, EmptyAndInvalid) {
  // An empty warm-up (every device quarantined) must be a diagnosable
  // error, not a silent {} that fails somewhere downstream.
  EXPECT_THROW((void)percents_from_times({}), std::invalid_argument);
  EXPECT_THROW((void)percents_from_times({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW((void)percents_from_times({-1.0}), std::invalid_argument);
}

TEST(Shares, InverseOfPercentsNormalized) {
  const auto s = shares_from_percents({0.5, 1.0});
  EXPECT_DOUBLE_EQ(s[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(s[1], 1.0 / 3.0);
  EXPECT_NEAR(s[0] + s[1], 1.0, 1e-12);
}

TEST(Shares, EqualPercentsEqualShares) {
  const auto s = shares_from_percents({1.0, 1.0, 1.0, 1.0});
  for (double v : s) EXPECT_DOUBLE_EQ(v, 0.25);
}

TEST(Shares, NonPositivePercentThrows) {
  EXPECT_THROW((void)shares_from_percents({1.0, 0.0}), std::invalid_argument);
}

TEST(Shares, EmptyThrows) {
  EXPECT_THROW((void)shares_from_percents({}), std::invalid_argument);
}

// Table-driven edge cases for the warm-up -> split pipeline.  Each case is
// a (times, expected shares) pair run through percents_from_times +
// shares_from_percents end to end.
TEST(WarmupSplit, TableDrivenSharesFromTimes) {
  struct Case {
    const char* name;
    std::vector<double> times;
    std::vector<double> expected_shares;
  };
  const Case cases[] = {
      {"single device", {3.0}, {1.0}},
      {"two equal", {2.0, 2.0}, {0.5, 0.5}},
      {"2x faster gets 2x work", {1.0, 2.0}, {2.0 / 3.0, 1.0 / 3.0}},
      {"three-way 1:2:4", {1.0, 2.0, 4.0}, {4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0}},
      {"tiny absolute times", {1e-9, 2e-9}, {2.0 / 3.0, 1.0 / 3.0}},
  };
  for (const Case& c : cases) {
    const auto shares = shares_from_percents(percents_from_times(c.times));
    ASSERT_EQ(shares.size(), c.expected_shares.size()) << c.name;
    double sum = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      EXPECT_NEAR(shares[i], c.expected_shares[i], 1e-12) << c.name << " share " << i;
      sum += shares[i];
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << c.name;
  }
}

}  // namespace
}  // namespace metadock::sched
