#include "cpusim/cpu_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mol/synth.h"
#include "scoring/batch_engine.h"
#include "util/rng.h"

namespace metadock::cpusim {
namespace {

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  Fixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 150;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 10;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n) {
  util::Xoshiro256 rng(23);
  std::vector<scoring::Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-8, 8)),
                  static_cast<float>(rng.uniform(-8, 8)),
                  static_cast<float>(rng.uniform(-8, 8))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

TEST(CpuEngine, ScoresMatchDirectScorer) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(25);
  std::vector<double> out(poses.size());
  engine.score(poses, out);
  // The default impl is the batched engine: bit-exact against it, and
  // within FP-association distance of the reference path.
  const scoring::BatchScoringEngine batched(f.scorer);
  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_EQ(out[i], batched.score(poses[i])) << i;
    const double ref = f.scorer.score(poses[i]);
    EXPECT_NEAR(out[i], ref, 1e-5 * (1.0 + std::abs(ref))) << i;
  }
}

TEST(CpuEngine, PinnedKernelMatchesBatchEngineExactly) {
  Fixture f;
  const auto poses = random_poses(25);
  for (const auto& [impl, level] :
       {std::pair{scoring::ScoringImpl::kBatched, scoring::default_simd_level()},
        std::pair{scoring::ScoringImpl::kBatchedSimd, scoring::SimdLevel::kScalar}}) {
    CpuScoringEngine engine(xeon_e3_1220(), f.scorer, impl, level);
    std::vector<double> out(poses.size());
    engine.score(poses, out);
    const scoring::BatchScoringEngine scalar(f.scorer, {.simd = scoring::SimdLevel::kScalar});
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(out[i], scalar.score(poses[i])) << scoring::scoring_impl_name(impl) << " " << i;
    }
  }
}

TEST(CpuEngine, VirtualTimeAdvancesWithWork) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score_cost_only(100);
  const double t1 = engine.busy_seconds();
  EXPECT_GT(t1, 0.0);
  engine.score_cost_only(100);
  EXPECT_NEAR(engine.busy_seconds(), 2.0 * t1, 1e-9);
}

TEST(CpuEngine, RealAndCostOnlyAgree) {
  Fixture f;
  CpuScoringEngine real(xeon_e3_1220(), f.scorer);
  CpuScoringEngine cost(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(64);
  std::vector<double> out(poses.size());
  real.score(poses, out);
  cost.score_cost_only(poses.size());
  EXPECT_DOUBLE_EQ(real.busy_seconds(), cost.busy_seconds());
}

TEST(CpuEngine, FasterCpuIsFaster) {
  Fixture f;
  CpuScoringEngine big(xeon_e5_2620_dual(), f.scorer);
  CpuScoringEngine small(xeon_e3_1220(), f.scorer);
  big.score_cost_only(1000);
  small.score_cost_only(1000);
  EXPECT_LT(big.busy_seconds(), small.busy_seconds());
}

TEST(CpuEngine, EnergyIsTdpTimesTime) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score_cost_only(500);
  EXPECT_NEAR(engine.energy_joules(), engine.spec().tdp_watts * engine.busy_seconds(), 1e-9);
}

TEST(CpuEngine, ResetClearsClock) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  engine.score_cost_only(10);
  engine.reset();
  EXPECT_DOUBLE_EQ(engine.busy_seconds(), 0.0);
}

TEST(CpuEngine, SizeMismatchThrows) {
  Fixture f;
  CpuScoringEngine engine(xeon_e3_1220(), f.scorer);
  const auto poses = random_poses(4);
  std::vector<double> out(5);
  EXPECT_THROW(engine.score(poses, out), std::invalid_argument);
}

}  // namespace
}  // namespace metadock::cpusim
