#include "mol/synth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <ostream>

#include "geom/cell_grid.h"

namespace metadock::mol {

// Print a Dataset by its PDB id.  gtest appends the printed parameter to
// every listed test name, and the default byte dump would carry the
// `pdb_id` pointer, which differs from one build to the next.  ADL finds
// this only in Dataset's own namespace, so it stays outside the anonymous
// one.
inline void PrintTo(const Dataset& ds, std::ostream* os) { *os << ds.pdb_id; }

namespace {

TEST(SynthReceptor, ExactAtomCount) {
  ReceptorParams p;
  p.atom_count = 500;
  EXPECT_EQ(make_receptor(p).size(), 500u);
}

TEST(SynthReceptor, DeterministicInSeed) {
  ReceptorParams p;
  p.atom_count = 200;
  const Molecule a = make_receptor(p);
  const Molecule b = make_receptor(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.position(i), b.position(i));
    EXPECT_EQ(a.element(i), b.element(i));
  }
}

TEST(SynthReceptor, DifferentSeedsDiffer) {
  ReceptorParams p1, p2;
  p1.atom_count = p2.atom_count = 100;
  p1.seed = 1;
  p2.seed = 2;
  const Molecule a = make_receptor(p1), b = make_receptor(p2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size() && !any_diff; ++i) {
    any_diff = !(a.position(i) == b.position(i));
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthReceptor, RespectsMinimumSpacing) {
  ReceptorParams p;
  p.atom_count = 400;
  p.min_spacing = 1.7;
  const Molecule m = make_receptor(p);
  const auto pts = m.positions();
  const geom::CellGrid grid = geom::CellGrid::over_points(pts, 2.0f);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    // Each atom's closest neighbour must be >= min_spacing away (allow
    // epsilon; positions went through float).
    std::size_t close = grid.count_within(pts[i], static_cast<float>(p.min_spacing) - 0.01f);
    EXPECT_EQ(close, 1u) << "atom " << i << " has a too-close neighbour";
  }
}

TEST(SynthReceptor, CentroidAtOrigin) {
  ReceptorParams p;
  p.atom_count = 300;
  EXPECT_LT(make_receptor(p).centroid().norm(), 1e-3f);
}

TEST(SynthReceptor, RadiusMatchesDensityModel) {
  ReceptorParams p;
  p.atom_count = 1000;
  const Molecule m = make_receptor(p);
  const double expected_r =
      std::cbrt(3.0 * 1000.0 / (4.0 * std::numbers::pi * p.density));
  EXPECT_NEAR(m.radius_about_centroid(), expected_r, expected_r * 0.15);
}

TEST(SynthReceptor, ElementMixIsProteinLike) {
  ReceptorParams p;
  p.atom_count = 2000;
  const Molecule m = make_receptor(p);
  std::size_t h = 0, c = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    h += m.element(i) == Element::kH;
    c += m.element(i) == Element::kC;
  }
  EXPECT_NEAR(static_cast<double>(h) / 2000.0, 0.50, 0.05);
  EXPECT_NEAR(static_cast<double>(c) / 2000.0, 0.32, 0.05);
}

TEST(SynthReceptor, ZeroAtomsIsEmpty) {
  ReceptorParams p;
  p.atom_count = 0;
  EXPECT_TRUE(make_receptor(p).empty());
}

TEST(SynthReceptor, InvalidParamsThrow) {
  ReceptorParams p;
  p.density = 0.0;
  EXPECT_THROW((void)make_receptor(p), std::invalid_argument);
  p.density = 0.1;
  p.min_spacing = -1.0;
  EXPECT_THROW((void)make_receptor(p), std::invalid_argument);
}

TEST(SynthReceptor, ImpossiblePackingFailsLoudly) {
  ReceptorParams p;
  p.atom_count = 500;
  p.density = 0.1;
  p.min_spacing = 10.0;  // cannot pack 500 atoms 10 A apart at this density
  EXPECT_THROW((void)make_receptor(p), std::runtime_error);
}

TEST(SynthLigand, ExactAtomCount) {
  LigandParams p;
  p.atom_count = 45;
  EXPECT_EQ(make_ligand(p).size(), 45u);
}

TEST(SynthLigand, DeterministicInSeed) {
  LigandParams p;
  p.atom_count = 30;
  const Molecule a = make_ligand(p), b = make_ligand(p);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.position(i), b.position(i));
}

TEST(SynthLigand, HeavyAtomsFormConnectedSkeleton) {
  LigandParams p;
  p.atom_count = 40;
  const Molecule m = make_ligand(p);
  // Heavy atoms come first (half the set); each must have a neighbour
  // within bond length + tolerance.
  const std::size_t heavy = (p.atom_count + 1) / 2;
  for (std::size_t i = 0; i < heavy; ++i) {
    float min_d = 1e9f;
    for (std::size_t j = 0; j < heavy; ++j) {
      if (i != j) min_d = std::min(min_d, m.position(i).distance(m.position(j)));
    }
    EXPECT_LT(min_d, 1.6f) << "heavy atom " << i << " is disconnected";
  }
}

TEST(SynthLigand, CentroidAtOrigin) {
  LigandParams p;
  p.atom_count = 25;
  EXPECT_LT(make_ligand(p).centroid().norm(), 1e-3f);
}

TEST(SynthLigand, IsCompact) {
  LigandParams p;
  p.atom_count = 45;
  EXPECT_LT(make_ligand(p).radius_about_centroid(), 20.0f);
}

class DatasetTest : public ::testing::TestWithParam<Dataset> {};

TEST_P(DatasetTest, Table5AtomCounts) {
  const Dataset ds = GetParam();
  EXPECT_EQ(make_dataset_receptor(ds).size(), ds.receptor_atoms);
  EXPECT_EQ(make_dataset_ligand(ds).size(), ds.ligand_atoms);
}

TEST_P(DatasetTest, NamesCarryPdbId) {
  const Dataset ds = GetParam();
  EXPECT_NE(make_dataset_receptor(ds).name().find(ds.pdb_id), std::string::npos);
  EXPECT_NE(make_dataset_ligand(ds).name().find(ds.pdb_id), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Table5, DatasetTest, ::testing::Values(kDataset2BSM, kDataset2BXG),
                         [](const auto& info) { return std::string(info.param.pdb_id); });

}  // namespace
}  // namespace metadock::mol
