#include "scoring/lennard_jones.h"

#include <gtest/gtest.h>

#include <numbers>
#include <vector>

#include "mol/synth.h"
#include "scoring/batch_engine.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

mol::Molecule single_atom(mol::Element e, const geom::Vec3& at, float q = 0.0f) {
  mol::Molecule m("one");
  m.add_atom(e, at, q);
  return m;
}

Pose random_pose(util::Xoshiro256& rng, float extent = 15.0f) {
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

TEST(LennardJones, ThrowsOnBadTileSize) {
  const mol::Molecule m = single_atom(mol::Element::kC, {0, 0, 0});
  ScoringOptions opt;
  opt.tile_size = 0;
  EXPECT_THROW(LennardJonesScorer(m, m, opt), std::invalid_argument);
}

TEST(LennardJones, CoulombTermChangesEnergy) {
  const mol::Molecule receptor = single_atom(mol::Element::kO, {0, 0, 0}, -0.5f);
  const mol::Molecule ligand = single_atom(mol::Element::kH, {0, 0, 0}, 0.3f);
  ScoringOptions with, without;
  with.coulomb = true;
  const LennardJonesScorer sc_with(receptor, ligand, with);
  const LennardJonesScorer sc_without(receptor, ligand, without);
  Pose pose;
  pose.position = {3.0f, 0, 0};
  // Opposite charges attract: the Coulomb term lowers the energy.
  EXPECT_LT(sc_with.score(pose), sc_without.score(pose));
}

TEST(LennardJones, CutoffDropsDistantPairs) {
  const mol::Molecule receptor = single_atom(mol::Element::kC, {0, 0, 0});
  const mol::Molecule ligand = single_atom(mol::Element::kC, {0, 0, 0});
  ScoringOptions opt;
  opt.cutoff = 8.0f;
  const LennardJonesScorer cut(receptor, ligand, opt);
  const LennardJonesScorer full(receptor, ligand);
  Pose near_pose, far_pose;
  near_pose.position = {4.0f, 0, 0};
  far_pose.position = {9.0f, 0, 0};
  // Inside the cutoff both agree; beyond it the cutoff scorer sees nothing.
  EXPECT_NEAR(cut.score(near_pose), full.score(near_pose), 1e-9);
  EXPECT_DOUBLE_EQ(cut.score(far_pose), 0.0);
  EXPECT_LT(full.score(far_pose), 0.0);
}

TEST(LennardJones, CutoffConsistentBetweenPaths) {
  mol::ReceptorParams rp;
  rp.atom_count = 200;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 9;
  const mol::Molecule ligand = mol::make_ligand(lp);
  ScoringOptions opt;
  opt.cutoff = 6.0f;
  const LennardJonesScorer scorer(receptor, ligand, opt);
  const BatchScoringEngine engine(scorer);
  util::Xoshiro256 rng(21);
  for (int i = 0; i < 10; ++i) {
    const Pose pose = random_pose(rng);
    const double ref = scorer.score(pose);
    EXPECT_NEAR(engine.score(pose), ref, 1e-5 * (1.0 + std::abs(ref)));
  }
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
// agrees with the reference path for every tile size, pose, and the
// Coulomb toggle.
class TiledAgreement : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(TiledAgreement, TiledEqualsReference) {
  const auto [tile, coulomb] = GetParam();
  mol::ReceptorParams rp;
  rp.atom_count = 333;  // not a multiple of any tile size: exercises tails
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 17;
  const mol::Molecule ligand = mol::make_ligand(lp);

  ScoringOptions opt;
  opt.tile_size = tile;
  opt.coulomb = coulomb;
  const LennardJonesScorer scorer(receptor, ligand, opt);

  util::Xoshiro256 rng(7);
  std::vector<Pose> poses;
  for (int i = 0; i < 25; ++i) poses.push_back(random_pose(rng, 25.0f));
  for (const SimdLevel level : {SimdLevel::kScalar, default_simd_level()}) {
    const BatchScoringEngine engine(scorer, {.simd = level});
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

INSTANTIATE_TEST_SUITE_P(TileSweep, TiledAgreement,
                         ::testing::Combine(::testing::Values(1, 7, 64, 256, 1024),
                                            ::testing::Bool()));

}  // namespace
}  // namespace metadock::scoring
