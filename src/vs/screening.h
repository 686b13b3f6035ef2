// VirtualScreeningEngine — the user-facing API.
//
// Given a receptor, a node configuration and a metaheuristic, screen a
// library of ligands over the whole protein surface and rank them by best
// binding energy (BINDSURF-style blind virtual screening).  Each ligand is
// really docked, with its batches priced on the node's virtual devices; the
// hit list carries both the science (best pose/spot/energy) and the modeled
// cost (virtual seconds, joules).
#pragma once

#include <cstdint>
#include <vector>

#include "meta/engine.h"
#include "meta/params.h"
#include "mol/conformers.h"
#include "mol/molecule.h"
#include "scoring/pose.h"
#include "sched/executor.h"
#include "surface/spots.h"

namespace metadock::vs {

struct ScreeningOptions {
  meta::MetaheuristicParams params = meta::m3_scatter_light();
  sched::ExecutorOptions exec;
  surface::SpotParams spot_params;
  std::uint64_t seed = 42;
  /// Work scale in (0,1]: generations (or one-pass local-search depth) are
  /// multiplied by this for the numeric run.  1.0 reproduces the preset
  /// exactly; smaller values keep interactive examples fast.
  double scale = 1.0;
};

struct LigandHit {
  std::size_t ligand_index = 0;
  std::string ligand_name;
  double best_score = 0.0;
  scoring::Pose best_pose;
  int best_spot_id = -1;
  double virtual_seconds = 0.0;
  double energy_joules = 0.0;
  /// Fault handling performed while docking this ligand (all zero when the
  /// node ran fault-free).
  sched::FaultReport faults;
};

/// The canonical hit ordering: by best score, ties broken by ligand index.
/// A score-only comparator is a strict weak ordering but not a total order
/// over hits, so equal-score ligands (duplicates are common in real
/// libraries) would rank nondeterministically across runs, platforms and
/// the batched top-N% heap.  Every ranked hit list — screen(), the batch
/// screener's retention heap and its final ordering — must sort with this.
[[nodiscard]] inline bool hit_before(const LigandHit& a, const LigandHit& b) noexcept {
  if (a.best_score != b.best_score) return a.best_score < b.best_score;
  return a.ligand_index < b.ligand_index;
}

/// Sorts best-first under hit_before (deterministic total order).
void sort_hits(std::vector<LigandHit>& hits);

class VirtualScreeningEngine {
 public:
  VirtualScreeningEngine(const mol::Molecule& receptor, sched::NodeConfig node,
                         ScreeningOptions options = {});

  /// Docks one ligand; returns its hit record.
  [[nodiscard]] LigandHit dock(const mol::Molecule& ligand, std::size_t ligand_index = 0);

  /// Ensemble (flexible-ligand) docking: generates a torsional conformer
  /// ensemble (mol::generate_conformers) and docks every conformer rigidly;
  /// the returned hit is the best over the ensemble and `per_conformer`
  /// (when non-null) receives each conformer's best energy.
  [[nodiscard]] LigandHit dock_ensemble(const mol::Molecule& ligand,
                                        const mol::ConformerParams& conformers,
                                        std::vector<double>* per_conformer = nullptr,
                                        std::size_t ligand_index = 0);

  /// Screens a library; returns hits sorted by best score (best first).
  [[nodiscard]] std::vector<LigandHit> screen(const std::vector<mol::Molecule>& ligands);

  [[nodiscard]] const std::vector<surface::Spot>& spots() const noexcept { return spots_; }
  [[nodiscard]] const mol::Molecule& receptor() const noexcept { return receptor_; }
  [[nodiscard]] const ScreeningOptions& options() const noexcept { return options_; }

 private:
  const mol::Molecule& receptor_;
  sched::NodeConfig node_;
  ScreeningOptions options_;
  std::vector<surface::Spot> spots_;
};

}  // namespace metadock::vs
