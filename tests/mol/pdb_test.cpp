#include "mol/pdb.h"

#include "mol/synth.h"

#include <gtest/gtest.h>

#include <sstream>

namespace metadock::mol {
namespace {

Molecule sample() {
  Molecule m("sample");
  m.add_atom(Element::kC, {1.5f, -2.25f, 10.125f});
  m.add_atom(Element::kO, {0.0f, 0.0f, 0.0f});
  m.add_atom(Element::kCl, {-3.5f, 4.0f, 2.0f});
  return m;
}

TEST(Pdb, WriteReadRoundTripsCoordinates) {
  std::ostringstream out;
  write_pdb(out, sample());
  std::istringstream in(out.str());
  const Molecule m = read_pdb(in);
  ASSERT_EQ(m.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(m.position(i).x, sample().position(i).x, 1e-3f);
    EXPECT_NEAR(m.position(i).y, sample().position(i).y, 1e-3f);
    EXPECT_NEAR(m.position(i).z, sample().position(i).z, 1e-3f);
  }
}

TEST(Pdb, WriteReadRoundTripsElements) {
  std::ostringstream out;
  write_pdb(out, sample());
  std::istringstream in(out.str());
  const Molecule m = read_pdb(in);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.element(0), Element::kC);
  EXPECT_EQ(m.element(1), Element::kO);
  EXPECT_EQ(m.element(2), Element::kCl);
}

TEST(Pdb, ReadParsesAtomRecords) {
  const std::string pdb =
      "ATOM      1  CA  ALA A   1      11.104   6.134  -6.504  1.00  0.00           C\n"
      "HETATM    2  O   HOH A   2       1.000   2.000   3.000  1.00  0.00           O\n"
      "REMARK ignored line\n"
      "END\n";
  std::istringstream in(pdb);
  const Molecule m = read_pdb(in);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_NEAR(m.position(0).x, 11.104f, 1e-3f);
  EXPECT_NEAR(m.position(1).z, 3.0f, 1e-3f);
  EXPECT_EQ(m.element(0), Element::kC);
  EXPECT_EQ(m.element(1), Element::kO);
}

TEST(Pdb, ElementFallsBackToAtomNameColumn) {
  // No element field (short line): infer from atom-name column, skipping
  // leading digits.
  const std::string pdb = "ATOM      1 1HB  ALA A   1       1.000   2.000   3.000\n";
  std::istringstream in(pdb);
  const Molecule m = read_pdb(in);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m.element(0), Element::kH);
}

TEST(Pdb, ThrowsOnTruncatedCoordinates) {
  const std::string pdb = "ATOM      1  CA  ALA A   1      11.104\n";
  std::istringstream in(pdb);
  EXPECT_THROW((void)read_pdb(in), std::runtime_error);
}

TEST(Pdb, ThrowsOnGarbageCoordinates) {
  const std::string pdb =
      "ATOM      1  CA  ALA A   1      xxxxxxxx   6.134  -6.504  1.00  0.00           C\n";
  std::istringstream in(pdb);
  EXPECT_THROW((void)read_pdb(in), std::runtime_error);
}

/// One ATOM record whose x field (columns 31-38) is `x`.
std::string atom_with_x(const std::string& x) {
  return "ATOM      1  CA  ALA A   1    " + x + "   6.134  -6.504  1.00  0.00           C\n";
}

TEST(Pdb, RejectsNonFiniteCoordinates) {
  for (const std::string x : {"     nan", "     inf", "    -inf"}) {
    std::istringstream in(atom_with_x(x));
    EXPECT_THROW((void)read_pdb(in), std::runtime_error) << "x field '" << x << "'";
  }
}

TEST(Pdb, RejectsTrailingGarbage) {
  for (const std::string x : {"  1.0abc", "1.0    x", "  11.1.1"}) {
    std::istringstream in(atom_with_x(x));
    EXPECT_THROW((void)read_pdb(in), std::runtime_error) << "x field '" << x << "'";
  }
  // Blanks around the number stay legal.
  std::istringstream in(atom_with_x("  1.5   "));
  EXPECT_FLOAT_EQ(read_pdb(in).position(0).x, 1.5f);
}

TEST(Pdb, ThrowsWhenNoAtoms) {
  std::istringstream in("REMARK no coordinates here\nEND\n");
  try {
    (void)read_pdb(in, "empty.pdb");
    ADD_FAILURE() << "read_pdb accepted a stream without atoms";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty.pdb"), std::string::npos) << e.what();
  }
}

TEST(Pdb, ReadFileMissingThrows) {
  EXPECT_THROW((void)read_pdb_file("/nonexistent/file.pdb"), std::runtime_error);
}

TEST(Pdb, ComplexContainsBothChainsAndTer) {
  Molecule receptor("r");
  receptor.add_atom(Element::kC, {0, 0, 0});
  Molecule ligand("l");
  ligand.add_atom(Element::kN, {5, 0, 0});
  std::ostringstream out;
  write_complex_pdb(out, receptor, ligand);
  const std::string s = out.str();
  EXPECT_NE(s.find(" A"), std::string::npos);
  EXPECT_NE(s.find(" B"), std::string::npos);
  EXPECT_NE(s.find("TER"), std::string::npos);
  EXPECT_NE(s.find("END"), std::string::npos);

  // And it parses back with both atoms.
  std::istringstream in(s);
  EXPECT_EQ(read_pdb(in).size(), 2u);
}

// Property sweep: write->read roundtrip over a variety of generated
// ligands (sizes, elements) preserves geometry to PDB's fixed precision.
class PdbRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdbRoundTrip, LibraryLigandSurvives) {
  LigandParams p;
  p.seed = GetParam();
  p.atom_count = 20 + (GetParam() % 30);
  const Molecule original = make_ligand(p);
  std::ostringstream out;
  write_pdb(out, original);
  std::istringstream in(out.str());
  const Molecule back = read_pdb(in);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.element(i), original.element(i)) << i;
    EXPECT_NEAR(back.position(i).distance(original.position(i)), 0.0f, 2e-3f) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdbRoundTrip, ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(Pdb, SerialNumbersIncrease) {
  std::ostringstream out;
  write_pdb(out, sample());
  EXPECT_NE(out.str().find("HETATM    1"), std::string::npos);
  EXPECT_NE(out.str().find("HETATM    3"), std::string::npos);
}

}  // namespace
}  // namespace metadock::mol
