// Torsional conformer generation — ensemble docking support.
//
// The paper docks rigid ligands ("we have tested a relatively simple
// variant of the algorithm") and cites flexible docking as the harder
// problem.  The standard way a rigid engine covers ligand flexibility is
// *ensemble docking*: enumerate low-clash torsional conformers of the
// ligand up front and screen each rigid conformer independently.  This
// module rotates random subsets of the ligand's rotatable bonds (from
// bonds.h) by random angles, rejects self-clashing results, and returns a
// deterministic conformer ensemble ready for vs::VirtualScreeningEngine.
#pragma once

#include <cstdint>
#include <vector>

#include "mol/bonds.h"
#include "mol/molecule.h"

namespace metadock::mol {

struct ConformerParams {
  /// Ensemble size, including the input conformation as conformer 0.
  std::size_t count = 8;
  std::uint64_t seed = 13;
};

/// Two atoms separated by more than three bonds clash when their distance
/// is below this fraction of the sum of their vdW radii.  A trial
/// conformer is accepted when it introduces no clashes beyond those
/// already present in the input geometry.
inline constexpr float kClashVdwFraction = 0.55f;

/// Number of clashing non-bonded (beyond 1-4) atom pairs under the vdW
/// fraction criterion.  Exposed for tests and diagnostics.
[[nodiscard]] std::size_t count_clashes(const Molecule& mol, const std::vector<Bond>& bonds,
                                        float vdw_fraction = kClashVdwFraction);

/// Rotates the downstream side of `bond` by `angle` radians about the bond
/// axis, in place.
void rotate_torsion(Molecule& mol, const std::vector<Bond>& bonds, const Bond& bond,
                    float angle);

/// Generates a torsional ensemble.  Conformer 0 is always the (re-centered)
/// input.  Deterministic in the seed.  Molecules with no rotatable bonds
/// return `count` copies of the input (a rigid ligand has one conformer;
/// callers can detect this via rotatable_bonds()).
[[nodiscard]] std::vector<Molecule> generate_conformers(const Molecule& ligand,
                                                        const ConformerParams& params = {});

/// Root-mean-square deviation between two equal-size conformers (no
/// alignment — both are expected centered; used to check diversity).
[[nodiscard]] double rmsd(const Molecule& a, const Molecule& b);

}  // namespace metadock::mol
