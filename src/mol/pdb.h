// Minimal Protein Data Bank (PDB) reader/writer.
//
// The paper screens the PDB entries 2BSM and 2BXG.  Offline we synthesize
// equivalently-sized structures (see synth.h), but users with real PDB files
// can load them through this parser: it understands the fixed-column
// ATOM/HETATM records that carry coordinates and element symbols.
#pragma once

#include <iosfwd>
#include <string>

#include "mol/molecule.h"

namespace metadock::mol {

/// Parses ATOM and HETATM records from a PDB stream.  Each coordinate
/// field must hold one finite number padded only with blanks.  Throws
/// std::runtime_error on a truncated, malformed or non-finite coordinate
/// field, and when the stream holds no atom (the message names `name`,
/// the source).
[[nodiscard]] Molecule read_pdb(std::istream& in, std::string name = "pdb");

/// Reads a PDB file from disk.  Throws std::runtime_error when the file
/// cannot be opened.
[[nodiscard]] Molecule read_pdb_file(const std::string& path);

/// Writes the molecule as HETATM records (one MODEL).  `chain` is the PDB
/// chain identifier column.
void write_pdb(std::ostream& out, const Molecule& mol, char chain = 'A');

/// Writes receptor (chain A) and a posed ligand (chain B) into one file —
/// the "Figure 1" artifact: a receptor-ligand complex viewable in any
/// molecular viewer.
void write_complex_pdb(std::ostream& out, const Molecule& receptor, const Molecule& ligand);

}  // namespace metadock::mol
