#include "mol/conformers.h"

#include <gtest/gtest.h>

#include "mol/synth.h"

namespace metadock::mol {
namespace {

Molecule test_ligand(std::size_t atoms = 30, std::uint64_t seed = 5) {
  LigandParams p;
  p.atom_count = atoms;
  p.seed = seed;
  return make_ligand(p);
}

TEST(Conformers, RotateTorsionMovesOnlyDownstream) {
  // Kinked chain C0-C1-C2-C3 (collinear chains rotate onto themselves);
  // rotate about C1-C2.
  Molecule m("chain");
  m.add_atom(Element::kC, {0, 0, 0});
  m.add_atom(Element::kC, {1.5f, 0, 0});
  m.add_atom(Element::kC, {2.3f, 1.3f, 0});
  m.add_atom(Element::kC, {3.8f, 1.3f, 0});
  const auto bonds = infer_bonds(m);
  ASSERT_EQ(bonds.size(), 3u);
  const Molecule before = m;
  rotate_torsion(m, bonds, {1, 2}, 1.0f);
  EXPECT_EQ(m.position(0), before.position(0));
  EXPECT_EQ(m.position(1), before.position(1));
  // The axis atom stays; the tail moves.
  EXPECT_NEAR(m.position(2).distance(before.position(2)), 0.0f, 1e-5f);
  EXPECT_GT(m.position(3).distance(before.position(3)), 0.05f);
}

TEST(Conformers, RotationPreservesBondLengths) {
  Molecule m = test_ligand();
  const auto bonds = infer_bonds(m);
  const auto torsions = rotatable_bonds(m, bonds);
  ASSERT_FALSE(torsions.empty());
  std::vector<float> before;
  for (const Bond& b : bonds) before.push_back(m.position(b.a).distance(m.position(b.b)));
  rotate_torsion(m, bonds, torsions.front(), 2.0f);
  for (std::size_t i = 0; i < bonds.size(); ++i) {
    EXPECT_NEAR(m.position(bonds[i].a).distance(m.position(bonds[i].b)), before[i], 1e-4f);
  }
}

TEST(Conformers, FullTurnIsIdentity) {
  Molecule m = test_ligand();
  const Molecule before = m;
  const auto bonds = infer_bonds(m);
  const auto torsions = rotatable_bonds(m, bonds);
  ASSERT_FALSE(torsions.empty());
  rotate_torsion(m, bonds, torsions.front(), 2.0f * 3.14159265358979f);
  EXPECT_NEAR(rmsd(m, before), 0.0, 1e-4);
}

TEST(Conformers, EnsembleHasRequestedSizeAndKeepsInput) {
  const Molecule lig = test_ligand();
  ConformerParams p;
  p.count = 6;
  const auto ensemble = generate_conformers(lig, p);
  ASSERT_EQ(ensemble.size(), 6u);
  Molecule centered = lig;
  centered.center_at_origin();
  EXPECT_NEAR(rmsd(ensemble[0], centered), 0.0, 1e-5);
  for (const Molecule& c : ensemble) EXPECT_EQ(c.size(), lig.size());
}

TEST(Conformers, EnsembleIsDiverse) {
  const Molecule lig = test_ligand(40);
  ConformerParams p;
  p.count = 6;
  const auto ensemble = generate_conformers(lig, p);
  int distinct = 0;
  for (std::size_t i = 1; i < ensemble.size(); ++i) {
    if (rmsd(ensemble[i], ensemble[0]) > 0.3) ++distinct;
  }
  EXPECT_GE(distinct, 3);
}

TEST(Conformers, ConformersIntroduceNoNewClashes) {
  const Molecule lig = test_ligand(40);
  ConformerParams p;
  p.count = 8;
  const auto ensemble = generate_conformers(lig, p);
  const auto bonds = infer_bonds(ensemble[0]);
  const std::size_t base = count_clashes(ensemble[0], bonds);
  for (const Molecule& c : ensemble) {
    EXPECT_LE(count_clashes(c, bonds), base);
  }
}

TEST(Conformers, CountClashesDetectsOverlap) {
  // Two carbons far beyond bonding range but closer than the vdW limit
  // would require an intermediate topology; build a 5-atom chain folded
  // back on itself.
  Molecule m("fold");
  m.add_atom(Element::kC, {0, 0, 0});
  m.add_atom(Element::kC, {1.5f, 0, 0});
  m.add_atom(Element::kC, {2.3f, 1.3f, 0});
  m.add_atom(Element::kC, {1.5f, 2.6f, 0});
  m.add_atom(Element::kC, {0.0f, 2.6f, 0});
  const auto bonds = infer_bonds(m);
  // Atom 0 and atom 4 are 4 bonds apart and only 2.6 A apart in space:
  // below 0.55 * (1.7 + 1.7) = 1.87?  2.6 > 1.87, so no clash yet.
  EXPECT_EQ(count_clashes(m, bonds, 0.55f), 0u);
  // With a generous fraction the same pair registers as a clash.
  EXPECT_GE(count_clashes(m, bonds, 0.9f), 1u);
}

TEST(Conformers, DeterministicInSeed) {
  const Molecule lig = test_ligand();
  ConformerParams p;
  p.count = 4;
  const auto a = generate_conformers(lig, p);
  const auto b = generate_conformers(lig, p);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(rmsd(a[i], b[i]), 0.0, 1e-9);
}

TEST(Conformers, SeedChangesEnsemble) {
  const Molecule lig = test_ligand(40);
  ConformerParams p1, p2;
  p1.count = p2.count = 4;
  p2.seed = 99;
  const auto a = generate_conformers(lig, p1);
  const auto b = generate_conformers(lig, p2);
  EXPECT_GT(rmsd(a[1], b[1]), 1e-3);
}

TEST(Conformers, RigidMoleculeYieldsCopies) {
  Molecule rigid("co");  // a two-atom molecule has no rotatable bonds
  rigid.add_atom(Element::kC, {0, 0, 0});
  rigid.add_atom(Element::kO, {1.2f, 0, 0});
  const auto ensemble = generate_conformers(rigid, {});
  ASSERT_EQ(ensemble.size(), ConformerParams{}.count);
  for (const Molecule& c : ensemble) EXPECT_NEAR(rmsd(c, ensemble[0]), 0.0, 1e-6);
}

TEST(Conformers, EmptyInputThrows) {
  EXPECT_THROW((void)generate_conformers(Molecule{}, {}), std::invalid_argument);
}

TEST(Conformers, RmsdValidation) {
  Molecule a("a"), b("b");
  a.add_atom(Element::kC, {0, 0, 0});
  EXPECT_THROW((void)rmsd(a, b), std::invalid_argument);
  b.add_atom(Element::kC, {3, 4, 0});
  EXPECT_NEAR(rmsd(a, b), 5.0, 1e-6);
}

}  // namespace
}  // namespace metadock::mol
