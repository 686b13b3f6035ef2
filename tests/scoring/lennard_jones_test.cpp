#include "scoring/lennard_jones.h"

#include <gtest/gtest.h>

#include <numbers>
#include <vector>

#include "mol/synth.h"
#include "scoring/batch_engine.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

mol::Molecule single_atom(mol::Element e, const geom::Vec3& at) {
  mol::Molecule m("one");
  m.add_atom(e, at);
  return m;
}

Pose random_pose(util::Xoshiro256& rng, float extent) {
  Pose p;
  p.position = {static_cast<float>(rng.uniform(-extent, extent)),
                static_cast<float>(rng.uniform(-extent, extent)),
                static_cast<float>(rng.uniform(-extent, extent))};
  p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return p;
}

TEST(LennardJones, TwoAtomEnergyMatchesClosedForm) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  const double rmin = 2.0 * mol::lj_params(mol::Element::kC).rmin_half;
  const double eps = mol::lj_params(mol::Element::kC).epsilon;

  Pose pose;
  pose.position = {static_cast<float>(rmin), 0, 0};
  // At the minimum distance the energy is -epsilon.
  EXPECT_NEAR(scorer.score(pose), -eps, 1e-3);

  pose.position = {static_cast<float>(2.0 * rmin), 0, 0};
  // Far side of the well: small negative.
  EXPECT_LT(scorer.score(pose), 0.0);
  EXPECT_GT(scorer.score(pose), -eps);
}

TEST(LennardJones, ClashIsStronglyRepulsive) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;
  pose.position = {0.5f, 0, 0};
  EXPECT_GT(scorer.score(pose), 100.0);
}

TEST(LennardJones, OverlappingAtomsAreFiniteViaClamp) {
  const mol::Molecule receptor = single_atom(mol::Element::kO, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kO, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;  // exactly on top
  const double e = scorer.score(pose);
  EXPECT_TRUE(std::isfinite(e));
  EXPECT_GT(e, 0.0);
}

TEST(LennardJones, FarLigandHasNegligibleEnergy) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  Pose pose;
  pose.position = {200.0f, 0, 0};
  EXPECT_NEAR(scorer.score(pose), 0.0, 1e-6);
}

TEST(LennardJones, RotationAboutOwnAxisOfSymmetricLigandIsInvariant) {
  // A single-atom ligand is rotation invariant: orientation must not matter.
  const mol::Molecule receptor = single_atom(mol::Element::kN, {1, 2, 3});
  const mol::Molecule ligand = single_atom(mol::Element::kO, {0, 0, 0});
  const LennardJonesScorer scorer(receptor, ligand);
  util::Xoshiro256 rng(3);
  Pose a, b;
  a.position = b.position = {4, 5, 6};
  b.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  EXPECT_NEAR(scorer.score(a), scorer.score(b), 1e-9);
}

TEST(LennardJones, ThrowsOnEmptyMolecules) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule empty;
  EXPECT_THROW(LennardJonesScorer(empty, receptor), std::invalid_argument);
  EXPECT_THROW(LennardJonesScorer(receptor, empty), std::invalid_argument);
}

// The tile size of the receptor sweep lives on the batched engine now; a
// non-positive one is still refused before any scoring happens.
TEST(LennardJones, ThrowsOnBadTileSize) {
  const mol::Molecule m = single_atom(mol::Element::kC, {0, 0, 0});
  const LennardJonesScorer scorer(m, m);
  EXPECT_THROW(BatchScoringEngine(scorer, {.tile_size = 0}), std::invalid_argument);
  EXPECT_THROW(BatchScoringEngine(scorer, {.tile_size = -1}), std::invalid_argument);
}

TEST(LennardJones, PairsPerEvalIsProduct) {
  mol::ReceptorParams rp;
  rp.atom_count = 100;
  mol::LigandParams lp;
  lp.atom_count = 10;
  const LennardJonesScorer scorer(mol::make_receptor(rp), mol::make_ligand(lp));
  EXPECT_EQ(scorer.pairs_per_eval(), 1000u);
}

// Property sweep: the batched engine's tiled receptor sweep (both kernels)
// agrees with the reference path for every tile size and pose.
class TiledAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TiledAgreement, TiledEqualsReference) {
  const int tile = GetParam();
  mol::ReceptorParams rp;
  rp.atom_count = 333;  // not a multiple of any tile size: exercises tails
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 17;
  const mol::Molecule ligand = mol::make_ligand(lp);

  const LennardJonesScorer scorer(receptor, ligand);

  util::Xoshiro256 rng(7);
  std::vector<Pose> poses;
  for (int i = 0; i < 25; ++i) poses.push_back(random_pose(rng, 25.0f));
  for (const SimdLevel level : {SimdLevel::kScalar, default_simd_level()}) {
    const BatchScoringEngine engine(scorer, {.simd = level, .tile_size = tile});
    std::vector<double> tiled(poses.size());
    engine.score_batch(poses, tiled);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      const double ref = scorer.score(poses[i]);
      // The scoring TUs build with relaxed FP; allow for re-association.
      EXPECT_NEAR(tiled[i], ref, 1e-5 * (1.0 + std::abs(ref)))
          << simd_level_name(level) << " pose " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileSweep, TiledAgreement, ::testing::Values(1, 7, 64, 256, 1024));

}  // namespace
}  // namespace metadock::scoring
