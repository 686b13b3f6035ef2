#include "gpusim/scoring_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gpusim/device_db.h"
#include "mol/synth.h"
#include "util/rng.h"

namespace metadock::gpusim {
namespace {

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  Fixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 200;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 15;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n) {
  util::Xoshiro256 rng(17);
  std::vector<scoring::Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

TEST(ScoringKernel, UploadAccountedAtConstruction) {
  Fixture f;
  Device dev(geforce_gtx580());
  DeviceScoringKernel kernel(dev, f.scorer);
  EXPECT_GT(dev.busy_seconds(), 0.0);
  EXPECT_GT(dev.bytes_transferred(), 0.0);
}

TEST(ScoringKernel, RealScoresMatchDirectScorer) {
  Fixture f;
  Device dev(geforce_gtx580());
  DeviceScoringKernel kernel(dev, f.scorer);
  const auto poses = random_poses(37);  // not a multiple of the block size
  std::vector<double> gpu(poses.size());
  kernel.launch(Device::kDefaultStream, poses.size(), poses, gpu);
  // The default impl is the batched engine: bit-exact against it (per-pose
  // energies are independent of block boundaries), and within
  // FP-association distance of the reference path.
  const scoring::BatchScoringEngine batched(f.scorer);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_EQ(gpu[i], batched.score(poses[i])) << i;
    const double ref = f.scorer.score(poses[i]);
    EXPECT_NEAR(gpu[i], ref, 1e-5 * (1.0 + std::abs(ref))) << i;
  }
}

TEST(ScoringKernel, PinnedKernelMatchesBatchEngineExactly) {
  Fixture f;
  const auto poses = random_poses(37);
  for (const auto& [impl, level] :
       {std::pair{scoring::ScoringImpl::kBatched, scoring::default_simd_level()},
        std::pair{scoring::ScoringImpl::kBatchedSimd, scoring::SimdLevel::kScalar}}) {
    Device dev(geforce_gtx580());
    ScoringKernelOptions opt;
    opt.impl = impl;
    opt.simd_level = level;
    DeviceScoringKernel kernel(dev, f.scorer, opt);
    std::vector<double> gpu(poses.size());
    kernel.launch(Device::kDefaultStream, poses.size(), poses, gpu);
    const scoring::BatchScoringEngine scalar(f.scorer, {.simd = scoring::SimdLevel::kScalar});
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(gpu[i], scalar.score(poses[i])) << scoring::scoring_impl_name(impl) << " " << i;
    }
  }
}

TEST(ScoringKernel, CostOnlyAdvancesSameTimeAsRealScore) {
  // A real synchronous round (upload, scoring launch, download) costs what
  // score_cost_only() charges, and a cost-only launch what a real one does.
  Fixture f;
  Device real_dev(geforce_gtx580());
  Device cost_dev(geforce_gtx580());
  DeviceScoringKernel real_kernel(real_dev, f.scorer);
  DeviceScoringKernel cost_kernel(cost_dev, f.scorer);
  const auto poses = random_poses(100);
  std::vector<double> out(poses.size());
  real_dev.copy_to_device(DeviceScoringKernel::kBytesPerPose * static_cast<double>(poses.size()));
  real_kernel.launch(Device::kDefaultStream, poses.size(), poses, out);
  real_dev.sync();
  real_dev.copy_from_device(8.0 * static_cast<double>(poses.size()));
  cost_kernel.score_cost_only(poses.size());
  EXPECT_DOUBLE_EQ(real_dev.busy_seconds(), cost_dev.busy_seconds());

  real_kernel.launch(Device::kDefaultStream, poses.size(), poses, out);
  cost_kernel.launch(Device::kDefaultStream, poses.size());
  real_dev.sync();
  cost_dev.sync();
  EXPECT_DOUBLE_EQ(real_dev.busy_seconds(), cost_dev.busy_seconds());
}

TEST(ScoringKernel, LaunchConfigMapsWarpsToConformations) {
  Fixture f;
  Device dev(geforce_gtx580());
  ScoringKernelOptions opt;
  opt.warps_per_block = 4;
  DeviceScoringKernel kernel(dev, f.scorer, opt);
  const KernelLaunch l = kernel.launch_config(100);
  EXPECT_EQ(l.block_threads, 128);
  EXPECT_EQ(l.grid_blocks, 25);  // ceil(100/4)
  EXPECT_GT(l.shared_bytes_per_block, 0u);
}

TEST(ScoringKernel, NonTiledUsesNoSharedMemory) {
  Fixture f;
  Device dev(geforce_gtx580());
  ScoringKernelOptions opt;
  opt.tiled = false;
  DeviceScoringKernel kernel(dev, f.scorer, opt);
  EXPECT_EQ(kernel.launch_config(100).shared_bytes_per_block, 0u);
}

TEST(ScoringKernel, CostFlopsScaleWithPairs) {
  Fixture f;
  Device dev(geforce_gtx580());
  DeviceScoringKernel kernel(dev, f.scorer);
  const KernelCost c1 = kernel.cost(64);
  const KernelCost c2 = kernel.cost(128);
  EXPECT_NEAR(c2.flops / c1.flops, 2.0, 1e-9);
  EXPECT_NEAR(c1.flops,
              64.0 * static_cast<double>(f.scorer.pairs_per_eval()) *
                  DeviceScoringKernel::kFlopsPerPair,
              1.0);
}

TEST(ScoringKernel, TilingCutsGlobalTraffic) {
  Fixture f;
  Device dev(geforce_gtx580());
  ScoringKernelOptions tiled, naive;
  naive.tiled = false;
  DeviceScoringKernel kt(dev, f.scorer, tiled);
  DeviceScoringKernel kn(dev, f.scorer, naive);
  // Tiled: receptor streamed once per block, reused by all warps and ligand
  // atoms.  Naive: per-pair re-touches, a fraction of which reach DRAM.
  EXPECT_LT(kt.cost(256).global_bytes, kn.cost(256).global_bytes);
  const double pairs = 256.0 * static_cast<double>(f.scorer.pairs_per_eval());
  EXPECT_GT(kn.cost(256).global_bytes,
            pairs * DeviceScoringKernel::kBytesPerReceptorAtom *
                DeviceScoringKernel::kNaiveMissRate * 0.99);
}

TEST(ScoringKernel, SizeMismatchThrows) {
  Fixture f;
  Device dev(geforce_gtx580());
  DeviceScoringKernel kernel(dev, f.scorer);
  const auto poses = random_poses(4);
  std::vector<double> out(3);
  EXPECT_THROW(kernel.launch(Device::kDefaultStream, poses.size(), poses, out),
               std::invalid_argument);
  std::vector<double> four(4);
  EXPECT_THROW(kernel.launch(Device::kDefaultStream, 5, poses, four), std::invalid_argument);
}

TEST(ScoringKernel, EmptyBatchIsNoop) {
  Fixture f;
  Device dev(geforce_gtx580());
  DeviceScoringKernel kernel(dev, f.scorer);
  const double before = dev.busy_seconds();
  kernel.launch(Device::kDefaultStream, 0);
  kernel.score_cost_only(0);
  dev.sync();
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), before);
}

TEST(ScoringKernel, BadOptionsThrow) {
  Fixture f;
  Device dev(geforce_gtx580());
  ScoringKernelOptions opt;
  opt.warps_per_block = 0;
  EXPECT_THROW(DeviceScoringKernel(dev, f.scorer, opt), std::invalid_argument);
}

TEST(ScoringKernel, AllocatesAndReleasesDeviceMemory) {
  Fixture f;
  Device dev(geforce_gtx580());
  {
    DeviceScoringKernel kernel(dev, f.scorer);
    EXPECT_GT(dev.allocated_bytes(), 0.0);
  }
  EXPECT_DOUBLE_EQ(dev.allocated_bytes(), 0.0);
}

TEST(ScoringKernel, OutOfMemoryDeviceThrows) {
  Fixture f;
  DeviceSpec tiny = geforce_gtx580();
  tiny.dram_gb = 1e-9;  // effectively no DRAM
  Device dev(tiny);
  EXPECT_THROW(DeviceScoringKernel(dev, f.scorer), std::runtime_error);
}

TEST(ScoringKernel, FasterDeviceScoresFaster) {
  Fixture f;
  Device fast(tesla_k40c());
  Device slow(geforce_gtx580());
  DeviceScoringKernel kf(fast, f.scorer);
  DeviceScoringKernel ks(slow, f.scorer);
  const double f0 = fast.busy_seconds(), s0 = slow.busy_seconds();
  kf.score_cost_only(4096);
  ks.score_cost_only(4096);
  EXPECT_LT(fast.busy_seconds() - f0, slow.busy_seconds() - s0);
}

}  // namespace
}  // namespace metadock::gpusim
