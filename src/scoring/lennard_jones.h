// The paper's scoring function: Lennard-Jones free energy of a posed ligand
// against the whole receptor.  LennardJonesScorer::score() is the
// straightforward scalar loop — the oracle every fast path is tested
// against.  Production scoring runs the batched engine
// (scoring/batch_engine.h) over the same data.  Both compute the *full*
// receptor x ligand pair sum, as the paper does, accumulating in double.
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

/// Flat, type-erased ligand snapshot used by the inner loops: local
/// coordinates plus per-atom LJ row pointers resolved once.
struct LigandAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;

  static LigandAtoms from(const mol::Molecule& ligand);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

/// Receptor snapshot in SoA form.
struct ReceptorAtoms {
  std::vector<float> x, y, z;
  std::vector<std::uint8_t> type;

  static ReceptorAtoms from(const mol::Molecule& receptor);
  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
};

/// Receptor and ligand atom counts: all the cost models read of a docking
/// problem, so a cost-only estimate copies no atoms.
struct AtomCounts {
  std::size_t receptor = 0;
  std::size_t ligand = 0;

  /// The counts of a receptor-ligand pair; throws std::invalid_argument
  /// when either molecule is empty, as LennardJonesScorer does.
  static AtomCounts of(const mol::Molecule& receptor, const mol::Molecule& ligand);

  /// Pair interactions per single pose evaluation (receptor x ligand) —
  /// the cost models' basic unit of work.
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return static_cast<std::uint64_t>(receptor) * ligand;
  }
};

class LennardJonesScorer {
 public:
  LennardJonesScorer(const mol::Molecule& receptor, const mol::Molecule& ligand);

  /// Reference scalar path: one pose, the whole receptor in one sweep.
  [[nodiscard]] double score(const Pose& pose) const;

  [[nodiscard]] std::size_t receptor_size() const noexcept { return receptor_.size(); }
  [[nodiscard]] std::size_t ligand_size() const noexcept { return ligand_.size(); }
  [[nodiscard]] const ReceptorAtoms& receptor() const noexcept { return receptor_; }
  [[nodiscard]] const LigandAtoms& ligand() const noexcept { return ligand_; }

  [[nodiscard]] AtomCounts atom_counts() const noexcept {
    return {receptor_.size(), ligand_.size()};
  }
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return atom_counts().pairs_per_eval();
  }

 private:
  ReceptorAtoms receptor_;
  LigandAtoms ligand_;
};

namespace detail {

/// Poses can momentarily place atoms on top of each other during random
/// initialization; every pair loop clamps r^2 so the r^-12 wall stays
/// finite.  Shared by both scoring paths (reference and batched).
inline constexpr float kMinR2 = 0.01f;

/// Applies `pose` to every ligand atom, writing receptor-space coordinates
/// into tx/ty/tz (each at least lig.size() floats).  The shared
/// pose-transform primitive behind the reference and batched paths.
void transform_ligand(const LigandAtoms& lig, const Pose& pose, float* tx, float* ty, float* tz);

}  // namespace detail

}  // namespace metadock::scoring
