// The paper's scoring function: Lennard-Jones free energy of a posed ligand
// against the whole receptor, optionally with a Coulomb (electrostatic)
// term.  LennardJonesScorer::score() is the straightforward scalar loop —
// the oracle every fast path is tested against.  Production scoring runs
// the batched engine (scoring/batch_engine.h) over the same data.  Both
// compute the *full* receptor x ligand pair sum, as the paper does (no
// cutoff by default), accumulating in double.
#pragma once

#include <cstdint>
#include <vector>

#include "mol/molecule.h"
#include "scoring/pair_params.h"
#include "scoring/pose.h"

namespace metadock::scoring {

/// Modeled single-precision flops for one receptor-ligand pair interaction
/// (distance, r^-6/r^-12 evaluation, accumulate).  Shared by the CPU and
/// GPU cost models so their ratio — the speed-up the paper reports — only
/// depends on modeled hardware throughput, not on bookkeeping choices.
inline constexpr double kModelFlopsPerPair = 16.0;

struct ScoringOptions {
  /// Include the Coulomb term (paper's scoring uses plain LJ "for
  /// simplicity"; the electrostatic term is the documented extension).
  bool coulomb = false;
  /// Distance-dependent dielectric constant for the Coulomb term.
  float dielectric = 4.0f;
  /// Interaction cutoff in Angstrom; 0 means every pair counts (the
  /// paper's full pair sum).  A finite cutoff matches the grid scorer.
  float cutoff = 0.0f;
  /// Receptor tile size of the batched engine's sweep, in atoms (the CPU
  /// mirror of the paper's shared-memory tile).  256 atoms of (x,y,z,type)
  /// is ~4 KB — comfortably a shared-memory tile per block.
  int tile_size = 256;
};

/// Flat, type-erased ligand snapshot used by the inner loops: local
/// coordinates plus per-atom LJ row pointers resolved once.
struct LigandAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;
  std::vector<float> charge;

  static LigandAtoms from(const mol::Molecule& ligand);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

/// Receptor snapshot in SoA form.
struct ReceptorAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;
  std::vector<float> charge;

  static ReceptorAtoms from(const mol::Molecule& receptor);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

class LennardJonesScorer {
 public:
  LennardJonesScorer(const mol::Molecule& receptor, const mol::Molecule& ligand,
                     ScoringOptions options = {});

  /// Reference scalar path: one pose, the whole receptor in one sweep.
  [[nodiscard]] double score(const Pose& pose) const;

  [[nodiscard]] std::size_t receptor_size() const noexcept { return receptor_.size(); }
  [[nodiscard]] std::size_t ligand_size() const noexcept { return ligand_.size(); }
  [[nodiscard]] const ScoringOptions& options() const noexcept { return options_; }
  [[nodiscard]] const ReceptorAtoms& receptor() const noexcept { return receptor_; }
  [[nodiscard]] const LigandAtoms& ligand() const noexcept { return ligand_; }

  /// Pair interactions per single pose evaluation (receptor x ligand) —
  /// the cost models' basic unit of work.
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return static_cast<std::uint64_t>(receptor_.size()) * ligand_.size();
  }

 private:
  ReceptorAtoms receptor_;
  LigandAtoms ligand_;
  ScoringOptions options_;
};

namespace detail {

/// Poses can momentarily place atoms on top of each other during random
/// initialization; every pair loop clamps r^2 so the r^-12 wall stays
/// finite.  Shared by all scoring paths (reference, batched, grid).
inline constexpr float kMinR2 = 0.01f;

/// Coulomb constant in kcal*Angstrom/(mol*e^2).
inline constexpr float kCoulombConst = 332.0637f;

/// Applies `pose` to every ligand atom, writing receptor-space coordinates
/// into tx/ty/tz (each at least lig.size() floats).  The shared
/// pose-transform primitive behind the reference, batched, and grid paths.
void transform_ligand(const LigandAtoms& lig, const Pose& pose, float* tx, float* ty, float* tz);

}  // namespace detail

}  // namespace metadock::scoring
