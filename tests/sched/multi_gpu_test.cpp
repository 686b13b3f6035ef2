#include "sched/multi_gpu.h"

#include "scoring/batch_engine.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpusim/device_db.h"
#include "mol/synth.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace metadock::sched {
namespace {

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  Fixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 180;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 11;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n, std::uint64_t seed = 3) {
  util::Xoshiro256 rng(seed);
  std::vector<scoring::Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

TEST(SplitBatch, EqualSharesSplitEvenlyInBlocks) {
  const auto counts = split_batch(100, 4, {1.0, 1.0});
  EXPECT_EQ(counts[0] + counts[1], 100u);
  // 25 blocks split 13/12 -> 52/48 conformations.
  EXPECT_EQ(counts[0] % 4, 0u);
  EXPECT_LE(counts[0], 52u);
}

TEST(SplitBatch, WeightedShares) {
  const auto counts = split_batch(400, 4, {3.0, 1.0});
  EXPECT_EQ(counts[0] + counts[1], 400u);
  EXPECT_EQ(counts[0], 300u);
  EXPECT_EQ(counts[1], 100u);
}

TEST(SplitBatch, TailBlockPaddingAbsorbed) {
  // 10 conformations, blocks of 4 -> 3 blocks; counts sum to exactly 10.
  const auto counts = split_batch(10, 4, {1.0, 1.0});
  EXPECT_EQ(counts[0] + counts[1], 10u);
}

TEST(SplitBatch, SingleDeviceTakesAll) {
  const auto counts = split_batch(77, 4, {1.0});
  EXPECT_EQ(counts[0], 77u);
}

TEST(SplitBatch, ZeroConformations) {
  const auto counts = split_batch(0, 4, {1.0, 1.0});
  EXPECT_EQ(counts[0] + counts[1], 0u);
}

TEST(SplitBatch, InvalidArgsThrow) {
  EXPECT_THROW((void)split_batch(10, 0, {1.0}), std::invalid_argument);
  EXPECT_THROW((void)split_batch(10, 4, {}), std::invalid_argument);
  EXPECT_THROW((void)split_batch(10, 4, {-1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW((void)split_batch(10, 4, {0.0, 0.0}), std::invalid_argument);
}

// Property sweep: arbitrary share vectors must cover every conformation
// exactly once and stay proportional within one block.
class SplitSweep : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(SplitSweep, CoversAndStaysProportional) {
  const auto [n, seed] = GetParam();
  util::Xoshiro256 rng(seed);
  const std::size_t bins = 2 + rng.below(5);
  std::vector<double> shares(bins);
  double sum = 0.0;
  for (double& s : shares) {
    s = rng.uniform(0.05, 1.0);
    sum += s;
  }
  const auto counts = split_batch(n, 4, shares);
  std::size_t total = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    total += counts[b];
    // Proportionality within one block plus the shared tail block.
    const double exact = static_cast<double>(n) * shares[b] / sum;
    EXPECT_NEAR(static_cast<double>(counts[b]), exact, 8.0 + 4.0) << "bin " << b;
  }
  EXPECT_EQ(total, n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplitSweep,
                         ::testing::Combine(::testing::Values(1u, 63u, 64u, 1000u, 8192u),
                                            ::testing::Values(3u, 7u, 11u)));

TEST(MultiGpu, PinnedKernelMatchesBatchEngineExactly) {
  // kBatched runs the scalar kernel whatever level it is handed, and
  // kBatchedSimd runs the level it is handed.
  Fixture f;
  const auto poses = random_poses(37);
  const scoring::BatchScoringEngine scalar(f.scorer, {.simd = scoring::SimdLevel::kScalar});
  for (const auto& [impl, level] :
       {std::pair{scoring::ScoringImpl::kBatched, scoring::default_simd_level()},
        std::pair{scoring::ScoringImpl::kBatchedSimd, scoring::SimdLevel::kScalar}}) {
    gpusim::Runtime rt = testing::mixed_node_runtime();
    MultiGpuOptions opt;
    opt.kernel.impl = impl;
    opt.kernel.simd_level = level;
    MultiGpuBatchScorer mgs(rt, f.scorer, opt);
    std::vector<double> got(poses.size());
    mgs.evaluate(poses, got);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(got[i], scalar.score(poses[i])) << scoring::scoring_impl_name(impl) << " " << i;
    }
  }
}

TEST(MultiGpu, ScoresMatchDirectScorerRegardlessOfSplit) {
  Fixture f;
  const auto poses = random_poses(123);
  // The batch is scored once on the host by the batched engine: per-pose
  // energies are independent of how the batch is split, so every split
  // must reproduce them bit-exactly.
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  // Three very different splits must all produce identical science.
  for (const MultiGpuOptions& opt :
       {MultiGpuOptions{},  // equal static
        [] {
          MultiGpuOptions o;
          o.shares = {5.0, 1.0};
          return o;
        }(),
        [] {
          MultiGpuOptions o;
          o.dynamic = true;
          o.chunk_blocks = 2;
          return o;
        }()}) {
    gpusim::Runtime rt = testing::mixed_node_runtime();
    MultiGpuOptions options = opt;
    MultiGpuBatchScorer mgs(rt, f.scorer, options);
    std::vector<double> got(poses.size());
    mgs.evaluate(poses, got);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "pose " << i;
    }
  }
}

TEST(MultiGpu, AllConformationsAccounted) {
  Fixture f;
  gpusim::Runtime rt = testing::mixed_node_runtime();
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  mgs.evaluate_cost_only(500);
  mgs.evaluate_cost_only(300);
  const auto& confs = mgs.device_conformations();
  EXPECT_EQ(std::accumulate(confs.begin(), confs.end(), std::size_t{0}), 800u);
}

TEST(MultiGpu, NodeTimeIsBarrierAware) {
  // With two identical devices and equal shares, node time per batch is
  // roughly the time of half the batch, not the full batch.
  Fixture f;
  gpusim::Runtime rt2({gpusim::geforce_gtx580(), gpusim::geforce_gtx580()});
  gpusim::Runtime rt1({gpusim::geforce_gtx580()});
  MultiGpuBatchScorer two(rt2, f.scorer, {});
  MultiGpuBatchScorer one(rt1, f.scorer, {});
  two.evaluate_cost_only(4096);
  one.evaluate_cost_only(4096);
  EXPECT_LT(two.node_seconds(), 0.7 * one.node_seconds());
}

TEST(MultiGpu, NodeTimeTracksSlowestDevice) {
  // All work forced onto the slow device: node time equals its time even
  // though the fast device sits idle.
  Fixture f;
  gpusim::Runtime rt = testing::mixed_node_runtime();
  MultiGpuOptions opt;
  opt.shares = {0.0, 1.0};
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  const double upload = mgs.node_seconds();
  mgs.evaluate_cost_only(1024);
  EXPECT_EQ(mgs.device_conformations()[0], 0u);
  EXPECT_EQ(mgs.device_conformations()[1], 1024u);
  EXPECT_GT(mgs.node_seconds(), upload);
}

TEST(MultiGpu, DynamicModeGivesFasterDeviceMoreWork) {
  Fixture f;
  gpusim::Runtime rt = testing::mixed_node_runtime();
  MultiGpuOptions opt;
  opt.dynamic = true;
  opt.chunk_blocks = 4;
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  for (int i = 0; i < 5; ++i) mgs.evaluate_cost_only(2048);
  const auto& confs = mgs.device_conformations();
  EXPECT_GT(confs[0], confs[1]);  // K40c pulls more chunks
}

TEST(MultiGpu, ShareCountMismatchThrows) {
  Fixture f;
  gpusim::Runtime rt = testing::mixed_node_runtime();
  MultiGpuOptions opt;
  opt.shares = {1.0, 1.0, 1.0};
  EXPECT_THROW(MultiGpuBatchScorer(rt, f.scorer, opt), std::invalid_argument);
}

TEST(MultiGpu, NoDevicesThrows) {
  Fixture f;
  gpusim::Runtime rt({});
  EXPECT_THROW(MultiGpuBatchScorer(rt, f.scorer, {}), std::invalid_argument);
}

TEST(MultiGpu, EvaluateSizeMismatchThrows) {
  Fixture f;
  gpusim::Runtime rt({gpusim::geforce_gtx580()});
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  const auto poses = random_poses(4);
  std::vector<double> out(5);
  EXPECT_THROW(mgs.evaluate(poses, out), std::invalid_argument);
}

TEST(MultiGpu, CostOnlyScorerPricesFromAtomCountsAndScoresNothing) {
  // Built from atom counts alone, the scorer charges the same timeline as
  // one built from the scorer, and refuses a real batch before charging it.
  Fixture f;
  gpusim::Runtime by_scorer = testing::mixed_node_runtime();
  gpusim::Runtime by_counts = testing::mixed_node_runtime();
  MultiGpuBatchScorer real(by_scorer, f.scorer, {});
  MultiGpuBatchScorer cost(by_counts, f.scorer.atom_counts(), {});
  const std::vector<std::size_t> batches = {640, 640, 128, 640};
  for (const std::size_t n : batches) real.evaluate_cost_only(n);
  cost.evaluate_cost_only(batches, 1);
  EXPECT_EQ(cost.node_seconds(), real.node_seconds());
  EXPECT_EQ(cost.device_conformations(), real.device_conformations());

  const auto poses = random_poses(4);
  std::vector<double> out(poses.size());
  EXPECT_THROW(cost.evaluate(poses, out), std::logic_error);
  EXPECT_EQ(cost.node_seconds(), real.node_seconds());
}

TEST(MultiGpu, UploadChargedOnce) {
  Fixture f;
  gpusim::Runtime rt({gpusim::geforce_gtx580()});
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  const double upload = mgs.node_seconds();
  EXPECT_GT(upload, 0.0);
  mgs.evaluate_cost_only(64);
  mgs.evaluate_cost_only(64);
  // Two equal batches cost the same increment: node time is linear after
  // the one-time upload.
  const double after2 = mgs.node_seconds();
  mgs.evaluate_cost_only(64);
  mgs.evaluate_cost_only(64);
  EXPECT_NEAR(mgs.node_seconds() - after2, after2 - upload, 1e-9);
}

}  // namespace
}  // namespace metadock::sched
