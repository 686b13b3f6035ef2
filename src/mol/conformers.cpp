#include "mol/conformers.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "geom/quat.h"
#include "util/rng.h"

namespace metadock::mol {

void rotate_torsion(Molecule& mol, const std::vector<Bond>& bonds, const Bond& bond,
                    float angle) {
  const geom::Vec3 pivot = mol.position(bond.a);
  const geom::Vec3 axis = mol.position(bond.b) - pivot;
  if (axis.norm2() < 1e-8f) {
    throw std::invalid_argument("rotate_torsion: degenerate bond axis");
  }
  const geom::Quat rot = geom::Quat::axis_angle(axis, angle);
  for (std::uint32_t i : downstream_atoms(mol, bonds, bond)) {
    if (i == bond.b) continue;  // the axis atom stays put
    mol.set_position(i, rot.rotate(mol.position(i) - pivot) + pivot);
  }
}

namespace {

/// Rotatable bonds each conformer perturbs (capped by the number available).
constexpr int kTorsionsPerConformer = 3;
/// Attempts per accepted conformer before falling back to the input.
constexpr int kMaxAttempts = 64;

/// Bond-topology distance up to 3 (1-2, 1-3, 1-4 relations are the pairs a
/// torsion legitimately brings close).
std::vector<std::vector<bool>> within_three_bonds(
    const std::vector<std::vector<std::uint32_t>>& adj) {
  const std::size_t n = adj.size();
  std::vector<std::vector<bool>> close_map(n, std::vector<bool>(n, false));
  for (std::size_t start = 0; start < n; ++start) {
    std::vector<std::pair<std::uint32_t, int>> queue{{static_cast<std::uint32_t>(start), 0}};
    std::vector<bool> seen(n, false);
    seen[start] = true;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const auto [u, depth] = queue[q];
      close_map[start][u] = true;
      if (depth == 3) continue;
      for (std::uint32_t v : adj[u]) {
        if (!seen[v]) {
          seen[v] = true;
          queue.push_back({v, depth + 1});
        }
      }
    }
  }
  return close_map;
}

}  // namespace

std::size_t count_clashes(const Molecule& mol, const std::vector<Bond>& bonds,
                          float vdw_fraction) {
  const auto adj = adjacency(mol, bonds);
  const auto related = within_three_bonds(adj);
  std::size_t clashes = 0;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    for (std::size_t j = i + 1; j < mol.size(); ++j) {
      if (related[i][j]) continue;
      const float limit =
          vdw_fraction * (vdw_radius(mol.element(i)) + vdw_radius(mol.element(j)));
      if (mol.position(i).distance2(mol.position(j)) < limit * limit) ++clashes;
    }
  }
  return clashes;
}

std::vector<Molecule> generate_conformers(const Molecule& ligand,
                                          const ConformerParams& params) {
  if (ligand.empty()) throw std::invalid_argument("generate_conformers: empty ligand");
  if (params.count == 0) return {};

  Molecule base = ligand;
  base.center_at_origin();
  const std::vector<Bond> bonds = infer_bonds(base);
  const std::vector<Bond> torsions = rotatable_bonds(base, bonds);
  const std::size_t base_clashes = count_clashes(base, bonds);

  std::vector<Molecule> out;
  out.reserve(params.count);
  out.push_back(base);
  if (torsions.empty()) {
    while (out.size() < params.count) out.push_back(base);
    return out;
  }

  constexpr float kTwoPi = 2.0f * std::numbers::pi_v<float>;
  for (std::size_t c = 1; c < params.count; ++c) {
    auto rng = util::stream(params.seed, 0xC0F0u, c);
    Molecule accepted = base;  // fall back to the input if all attempts clash
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Molecule trial = base;
      const int n_twists =
          std::min<int>(kTorsionsPerConformer, static_cast<int>(torsions.size()));
      for (int t = 0; t < n_twists; ++t) {
        const Bond& bond = torsions[rng.below(torsions.size())];
        rotate_torsion(trial, bonds, bond, kTwoPi * rng.uniformf());
      }
      // Accept when the twist introduces no clashes beyond those already
      // present in the input geometry.
      if (count_clashes(trial, bonds) <= base_clashes) {
        trial.center_at_origin();
        accepted = trial;
        break;
      }
    }
    out.push_back(accepted);
  }
  return out;
}

double rmsd(const Molecule& a, const Molecule& b) {
  if (a.size() != b.size()) throw std::invalid_argument("rmsd: size mismatch");
  if (a.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a.position(i).distance2(b.position(i));
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace metadock::mol
