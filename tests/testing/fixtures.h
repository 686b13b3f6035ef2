// Shared test fixtures.
//
// Two docking problems:
//   * tiny_problem()  — a few hundred atoms; cheap enough for full numeric
//     engine runs in unit tests.
//   * paper_problem() — the real 2BSM-sized system; used by estimate-based
//     (cost-model replay) tests, where the paper's performance shape only
//     emerges at realistic batch sizes (tiny workloads are launch-overhead
//     dominated, on real GPUs as much as in the model).
//
// And a mixed node:
//   * mixed_node_specs()/mixed_node_runtime() — an unequal-speed
//     Kepler + Fermi device set (hertz-like; tiles to more devices by
//     alternating the two cards), with an optional fault plan attached.
//
// And the seven fault scenarios every dispatch.golden row runs under
// (dispatch_fault_cases).
#pragma once

#include <cstddef>
#include <vector>

#include "gpusim/device_db.h"
#include "gpusim/fault_plan.h"
#include "gpusim/runtime.h"
#include "meta/engine.h"
#include "mol/synth.h"

namespace metadock::testing {

inline std::vector<gpusim::DeviceSpec> mixed_node_specs(int n_devices = 2) {
  std::vector<gpusim::DeviceSpec> specs;
  specs.reserve(static_cast<std::size_t>(n_devices));
  for (int d = 0; d < n_devices; ++d) {
    specs.push_back(d % 2 == 0 ? gpusim::tesla_k40c() : gpusim::geforce_gtx580());
  }
  return specs;
}

inline gpusim::Runtime mixed_node_runtime(const gpusim::FaultPlan& plan = {},
                                          int n_devices = 2) {
  return gpusim::Runtime(mixed_node_specs(n_devices), plan);
}

inline const meta::DockingProblem& tiny_problem() {
  static const meta::DockingProblem p = [] {
    mol::ReceptorParams rp;
    rp.atom_count = 350;
    rp.seed = 21;
    static const mol::Molecule receptor = mol::make_receptor(rp);
    mol::LigandParams lp;
    lp.atom_count = 10;
    lp.seed = 22;
    static const mol::Molecule ligand = mol::make_ligand(lp);
    return meta::make_problem(receptor, ligand, 42);
  }();
  return p;
}

inline const meta::DockingProblem& paper_problem() {
  static const meta::DockingProblem p = [] {
    static const mol::Molecule receptor = mol::make_dataset_receptor(mol::kDataset2BSM);
    static const mol::Molecule ligand = mol::make_dataset_ligand(mol::kDataset2BSM);
    return meta::make_problem(receptor, ligand, 42);
  }();
  return p;
}

/// One fault scenario of the dispatch matrix.
struct FaultCase {
  const char* name;
  gpusim::FaultPlan plan;
  std::size_t rebalance_batches = 0;
};

/// The scenarios of dispatch.golden on an `n_dev`-device node.  Deaths land
/// mid-scoring: `mid_s(d)` is an instant inside device d's scoring phase in
/// the fault-free twin of the run.
template <typename MidS>
std::vector<FaultCase> dispatch_fault_cases(int n_dev, MidS&& mid_s) {
  gpusim::FaultPlan transient;
  transient.set_seed(2).transient(1, 0.2);
  gpusim::FaultPlan death;
  death.kill(1, mid_s(1));
  gpusim::FaultPlan all_dead;
  for (int d = 0; d < n_dev; ++d) all_dead.kill(d, 0.0);
  gpusim::FaultPlan straggler;
  straggler.straggle(0, 0.0, 4.0);
  gpusim::FaultPlan transient_death;
  transient_death.set_seed(1).transient(0, 0.5).kill(0, mid_s(0));
  // The slowdown sets in mid-run, so one run prices the same slice count
  // at slowdown 1 and at 4.
  gpusim::FaultPlan late_straggler;
  late_straggler.straggle(0, mid_s(0), 4.0);
  return {{"none", {}},
          {"transient", transient},
          {"death", death},
          {"all-dead", all_dead},
          {"straggler", straggler, 2},
          {"transient+death", transient_death},
          {"late-straggler", late_straggler}};
}

}  // namespace metadock::testing
