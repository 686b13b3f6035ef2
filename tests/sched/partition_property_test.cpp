// Randomized property sweep over split_batch: for ~1000 seeded share
// vectors, the invariants the schedulers rely on must hold exactly — every
// conformation is assigned exactly once, zero-weight bins stay empty, and
// apportionment is within one block of the exact proportional split.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sched/multi_gpu.h"
#include "util/rng.h"

namespace metadock::sched {
namespace {

struct SharedVector {
  std::size_t n = 0;
  int warps_per_block = 1;
  std::vector<double> shares;
};

/// Seeded random scenario: bin count 1..8, shares in [0, 1) with forced
/// zeros sprinkled in, at least one positive share.
SharedVector make_scenario(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  SharedVector s;
  s.n = rng.below(5000);
  s.warps_per_block = static_cast<int>(1 + rng.below(8));
  const std::size_t bins = 1 + rng.below(8);
  s.shares.resize(bins, 0.0);
  for (double& w : s.shares) {
    if (rng.below(4) == 0) continue;  // ~25% exact-zero weights
    w = rng.uniform(0.0, 1.0);
  }
  double sum = 0.0;
  for (double w : s.shares) sum += w;
  if (sum <= 0.0) s.shares[rng.below(bins)] = 1.0;
  return s;
}

TEST(PartitionProperty, SplitBatchInvariantsOverSeededShareVectors) {
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    const SharedVector s = make_scenario(seed);
    const std::vector<std::size_t> counts = split_batch(s.n, s.warps_per_block, s.shares);
    ASSERT_EQ(counts.size(), s.shares.size()) << "seed " << seed;

    const auto wpb = static_cast<std::size_t>(s.warps_per_block);
    std::size_t total = 0;
    std::size_t partial_bins = 0;
    double share_sum = 0.0;
    for (double w : s.shares) share_sum += w;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      total += counts[b];
      if (counts[b] % wpb != 0) ++partial_bins;
      if (s.shares[b] == 0.0) {
        EXPECT_EQ(counts[b], 0u) << "seed " << seed << " bin " << b;
      }
      // Block-granular apportionment: within one block of exact, plus the
      // tail block the last nonzero bin absorbs.
      const double exact = static_cast<double>(s.n) * s.shares[b] / share_sum;
      EXPECT_NEAR(static_cast<double>(counts[b]), exact, 2.0 * static_cast<double>(wpb))
          << "seed " << seed << " bin " << b;
    }
    EXPECT_EQ(total, s.n) << "seed " << seed;
    // Only the bin that hits the batch tail may hold a partial block.
    EXPECT_LE(partial_bins, 1u) << "seed " << seed;
  }
}

TEST(PartitionProperty, SplitBatchSmallerThanOneBlock) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t bins = 1 + rng.below(6);
    std::vector<double> shares(bins);
    for (double& w : shares) w = rng.uniform(0.05, 1.0);
    const std::size_t n = 1 + rng.below(3);  // n < warps_per_block = 4
    const std::vector<std::size_t> counts = split_batch(n, 4, shares);
    std::size_t total = 0;
    std::size_t nonzero = 0;
    for (std::size_t c : counts) {
      total += c;
      nonzero += c > 0 ? 1 : 0;
    }
    // A sub-block batch is one block: exactly one device runs it.
    EXPECT_EQ(total, n) << "seed " << seed;
    EXPECT_EQ(nonzero, 1u) << "seed " << seed;
  }
}

TEST(PartitionProperty, SplitBatchSingleDeviceTakesEverything) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    util::Xoshiro256 rng(seed);
    const std::size_t n = rng.below(10000);
    const std::vector<std::size_t> counts =
        split_batch(n, static_cast<int>(1 + rng.below(16)), {rng.uniform(0.01, 5.0)});
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0], n) << "seed " << seed;
  }
}

}  // namespace
}  // namespace metadock::sched
