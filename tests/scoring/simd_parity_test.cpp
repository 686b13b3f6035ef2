// Table-driven parity of the two batch kernels (scalar / AVX2) on edge
// shapes: pair counts not divisible by the lane width, single-atom
// ligands, empty batches, ligands that leave every remainder of the AVX2
// kernel's 4-atom blocks, and type runs that end in tails of every length.
// Kernels agree up to FP association order, so the comparison is the
// relative-tolerance idiom used by the equivalence suite; unsupported ISAs
// skip rather than fail, so the suite is green on any host.
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
  int tile_size = 256;
};

const std::vector<ParityShape>& shapes() {
  static const std::vector<ParityShape> s{
      {"empty_batch", 33, 5, 0},
      {"single_pose_sub_lane_receptor", 13, 5, 1},
      {"single_atom_ligand", 33, 1, 5},
      {"odd_everything", 13, 3, 5},
      {"one_full_lane_plus_tail", 17, 1, 5},
      {"paper_like_small", 101, 7, 33},
      // Every remainder of the AVX2 kernel's 4-atom ligand blocks.
      {"two_atom_ligand", 45, 2, 3},
      {"three_atom_ligand", 45, 3, 3},
      {"one_atom_block", 45, 4, 3},
      {"block_plus_one", 45, 5, 3},
      {"two_atom_blocks", 45, 8, 3},
      {"two_blocks_plus_one", 45, 9, 3},
      // Short tiles, whose type runs end in tails of every length 1-7.
      {"short_tiles_every_run_tail", 211, 6, 4, 37},
  };
  return s;
}

mol::Molecule shape_receptor(const ParityShape& shape) {
  mol::ReceptorParams rp;
  rp.atom_count = shape.receptor_atoms;
  rp.seed = 11;
  return mol::make_receptor(rp);
}

/// Scores `shape`'s poses (sample_pose(i)) with the scalar kernel and with
/// `level`'s, and expects them to agree to the suite's tolerance.
void expect_parity(const ParityShape& shape, SimdLevel level) {
  const mol::Molecule receptor = shape_receptor(shape);
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
  scalar_opt.tile_size = shape.tile_size;
  BatchScoringEngine(scorer, scalar_opt).score_batch(poses, ref);
  BatchEngineOptions opt = scalar_opt;
  opt.simd = level;
  BatchScoringEngine(scorer, opt).score_batch(poses, got);

  for (std::size_t i = 0; i < shape.pose_count; ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-4 * (1.0 + std::abs(ref[i])))
        << shape.name << " pose " << i << " at " << simd_level_name(level);
  }
}

TEST(SimdParityShapes, CoverEveryRunTailAndLigandBlockRemainder) {
  bool tail[8] = {}, remainder[4] = {};
  for (const ParityShape& shape : shapes()) {
    const PartitionedReceptor receptor = PartitionedReceptor::build(
        ReceptorAtoms::from(shape_receptor(shape)), static_cast<std::size_t>(shape.tile_size));
    for (const TypeRun& run : receptor.runs) tail[run.count % 8] = true;
    remainder[shape.ligand_atoms % 4] = true;
  }
  for (int t = 0; t < 8; ++t) EXPECT_TRUE(tail[t]) << "no run ends in a tail of " << t;
  for (int r = 0; r < 4; ++r) EXPECT_TRUE(remainder[r]) << "no ligand leaves " << r << " atoms";
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
  for (const ParityShape& shape : shapes()) expect_parity(shape, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Levels, SimdParity,
                         ::testing::Values(SimdLevel::kScalar, SimdLevel::kAvx2),
                         [](const ::testing::TestParamInfo<SimdLevel>& info) {
                           return std::string(simd_level_name(info.param));
                         });

}  // namespace
}  // namespace metadock::scoring
