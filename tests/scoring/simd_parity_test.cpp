// Table-driven parity of the two batch kernels (scalar / AVX2) on edge
// shapes: pair counts not divisible by the lane width, single-atom
// ligands, empty batches.  Kernels agree up to FP association order, so the
// comparison is the relative-tolerance idiom used by the equivalence suite;
// unsupported ISAs skip rather than fail, so the suite is green on any host.
#include "scoring/batch_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/quat.h"
#include "mol/synth.h"
#include "scoring/lennard_jones.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

Pose sample_pose(std::uint64_t seed) {
  auto rng = util::stream(0x51D0u, seed);
  Pose pose;
  pose.position = {static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10))};
  pose.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return pose;
}

struct ParityShape {
  const char* name;
  std::size_t receptor_atoms;  // deliberately not multiples of 8
  std::size_t ligand_atoms;
  std::size_t pose_count;
};

const std::vector<ParityShape>& shapes() {
  static const std::vector<ParityShape> s{
      {"empty_batch", 33, 5, 0},
      {"single_pose_sub_lane_receptor", 13, 5, 1},
      {"single_atom_ligand", 33, 1, 5},
      {"odd_everything", 13, 3, 5},
      {"one_full_lane_plus_tail", 17, 1, 5},
      {"paper_like_small", 101, 7, 33},
  };
  return s;
}

class SimdParity : public ::testing::TestWithParam<SimdLevel> {
 protected:
  void SetUp() override {
    if (!simd_level_supported(GetParam())) {
      GTEST_SKIP() << simd_level_name(GetParam()) << " kernel unavailable on this host";
    }
  }
};

TEST_P(SimdParity, MatchesScalarOnEdgeShapes) {
  for (const ParityShape& shape : shapes()) {
    mol::ReceptorParams rp;
    rp.atom_count = shape.receptor_atoms;
    rp.seed = 11;
    const mol::Molecule receptor = mol::make_receptor(rp);
    mol::LigandParams lp;
    lp.atom_count = shape.ligand_atoms;
    lp.seed = 12;
    const mol::Molecule ligand = mol::make_ligand(lp);
    const LennardJonesScorer scorer(receptor, ligand);

    std::vector<Pose> poses;
    for (std::size_t i = 0; i < shape.pose_count; ++i) poses.push_back(sample_pose(i));
    std::vector<double> ref(shape.pose_count), got(shape.pose_count);

    BatchEngineOptions scalar_opt;
    scalar_opt.simd = SimdLevel::kScalar;
    const BatchScoringEngine scalar(scorer, scalar_opt);
    scalar.score_batch(poses, ref);

    BatchEngineOptions opt;
    opt.simd = GetParam();
    const BatchScoringEngine engine(scorer, opt);
    engine.score_batch(poses, got);

    for (std::size_t i = 0; i < shape.pose_count; ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i])))
          << shape.name << " pose " << i << " at " << simd_level_name(GetParam());
    }
  }
}

TEST_P(SimdParity, CoulombAndCutoffVariantsMatchScalar) {
  mol::ReceptorParams rp;
  rp.atom_count = 45;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 7;
  const mol::Molecule ligand = mol::make_ligand(lp);

  for (const bool coulomb : {false, true}) {
    for (const float cutoff : {0.0f, 6.5f}) {
      ScoringOptions so;
      so.coulomb = coulomb;
      so.cutoff = cutoff;
      const LennardJonesScorer scorer(receptor, ligand, so);

      std::vector<Pose> poses;
      for (std::size_t i = 0; i < 9; ++i) poses.push_back(sample_pose(100 + i));
      std::vector<double> ref(poses.size()), got(poses.size());

      BatchEngineOptions scalar_opt;
      scalar_opt.simd = SimdLevel::kScalar;
      BatchScoringEngine(scorer, scalar_opt).score_batch(poses, ref);
      BatchEngineOptions opt;
      opt.simd = GetParam();
      BatchScoringEngine(scorer, opt).score_batch(poses, got);

      for (std::size_t i = 0; i < poses.size(); ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i])))
            << "coulomb=" << coulomb << " cutoff=" << cutoff << " pose " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, SimdParity,
                         ::testing::Values(SimdLevel::kScalar, SimdLevel::kAvx2),
                         [](const ::testing::TestParamInfo<SimdLevel>& info) {
                           return std::string(simd_level_name(info.param));
                         });

}  // namespace
}  // namespace metadock::scoring
