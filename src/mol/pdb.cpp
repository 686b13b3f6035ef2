#include "mol/pdb.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace metadock::mol {

namespace {

float parse_coord(const std::string& line, std::size_t begin, std::size_t len) {
  if (line.size() < begin + len) {
    throw std::runtime_error("pdb: truncated coordinate field: " + line);
  }
  const std::string field = line.substr(begin, len);
  std::size_t used = 0;
  float value = 0.0f;
  try {
    value = std::stof(field, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  // A field is one finite number padded with blanks: stof alone would take
  // "nan"/"inf" and stop silently at trailing garbage ("1.0abc" -> 1.0).
  if (used == 0 || !std::isfinite(value) ||
      field.find_first_not_of(' ', used) != std::string::npos) {
    throw std::runtime_error("pdb: bad coordinate '" + field + "'");
  }
  return value;
}

Element parse_element(const std::string& line) {
  // Columns 77-78 hold the element symbol; older files leave it blank, in
  // which case we fall back to the first letter of the atom name (cols 13-16).
  if (line.size() >= 78) {
    const std::string sym = line.substr(76, 2);
    if (sym != "  ") return element_from_symbol(sym);
  }
  if (line.size() >= 14) {
    // Atom-name column: skip leading digits (e.g. "1HB1").
    for (std::size_t i = 12; i < 16 && i < line.size(); ++i) {
      const char c = line[i];
      if (c != ' ' && (c < '0' || c > '9')) {
        return element_from_symbol(std::string(1, c));
      }
    }
  }
  return Element::kOther;
}

void write_record(std::ostream& out, const Molecule& mol, char chain, int& serial) {
  char buf[96];
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const geom::Vec3 p = mol.position(i);
    const std::string_view sym = element_symbol(mol.element(i));
    std::snprintf(buf, sizeof(buf),
                  "HETATM%5d %-4.4s %-3.3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2.2s\n",
                  serial, sym.data(), "MOL", chain, 1, static_cast<double>(p.x),
                  static_cast<double>(p.y), static_cast<double>(p.z), 1.0, 0.0, sym.data());
    out << buf;
    ++serial;
  }
}

}  // namespace

Molecule read_pdb(std::istream& in, std::string name) {
  Molecule mol(std::move(name));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("ATOM", 0) != 0 && line.rfind("HETATM", 0) != 0) continue;
    const float x = parse_coord(line, 30, 8);
    const float y = parse_coord(line, 38, 8);
    const float z = parse_coord(line, 46, 8);
    mol.add_atom(parse_element(line), {x, y, z});
  }
  if (mol.empty()) throw std::runtime_error("pdb: no ATOM or HETATM records in " + mol.name());
  return mol;
}

Molecule read_pdb_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("pdb: cannot open " + path);
  return read_pdb(in, path);
}

void write_pdb(std::ostream& out, const Molecule& mol, char chain) {
  int serial = 1;
  write_record(out, mol, chain, serial);
  out << "END\n";
}

void write_complex_pdb(std::ostream& out, const Molecule& receptor, const Molecule& ligand) {
  int serial = 1;
  write_record(out, receptor, 'A', serial);
  out << "TER\n";
  write_record(out, ligand, 'B', serial);
  out << "END\n";
}

}  // namespace metadock::mol
