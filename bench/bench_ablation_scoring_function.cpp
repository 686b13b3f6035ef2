// Ablation: scoring-function choice (the paper's closing remark — "with
// many other types of scoring functions still to be explored, this field
// seems to offer a promising ... area of research").
//
// Runs the same M3 docking (identical seeds, spots and schedule) under
// three scoring functions on the host and compares real wall-clock cost
// per evaluation and the resulting best energies:
//   * full LJ pair sum (the paper's function),
//   * cutoff LJ (8 A),
//   * precomputed AutoDock-style grid with trilinear interpolation.
#include <cstdio>
#include <vector>

#include "meta/engine.h"
#include "meta/evaluator.h"
#include "mol/synth.h"
#include "scoring/grid_scorer.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace metadock;
  using util::Table;

  // Host wall-clock bench: keep the system small enough to run in seconds.
  mol::ReceptorParams rp;
  rp.atom_count = 1024;
  const mol::Molecule receptor = mol::make_receptor(rp);
  mol::LigandParams lp;
  lp.atom_count = 24;
  const mol::Molecule ligand = mol::make_ligand(lp);
  const meta::DockingProblem problem = meta::make_problem(receptor, ligand);

  meta::MetaheuristicParams params = meta::m3_scatter_light();
  params.population_per_spot = 16;
  params.generations = 6;
  const meta::MetaheuristicEngine engine(params);

  Table t("Scoring-function ablation — " + std::to_string(receptor.size()) +
          "-atom receptor, " + std::to_string(problem.spots.size()) + " spots, M3");
  t.header({"scoring function", "setup s", "docking s", "us/eval", "best energy"});

  auto run_with = [&](const char* name, meta::Evaluator& eval, double setup_s) {
    util::WallTimer timer;
    const meta::RunResult r = engine.run(problem, eval);
    const double dock_s = timer.seconds();
    t.row({name, Table::num(setup_s, 3), Table::num(dock_s, 3),
           Table::num(dock_s * 1e6 / static_cast<double>(r.evaluations), 2),
           Table::num(r.best.score, 3)});
  };

  {
    util::WallTimer setup;
    const scoring::LennardJonesScorer full(receptor, ligand);
    const double setup_s = setup.seconds();
    meta::BatchedEvaluator eval(full);
    run_with("full LJ pair sum", eval, setup_s);
  }
  {
    util::WallTimer setup;
    scoring::ScoringOptions opt;
    opt.cutoff = 8.0f;
    const scoring::LennardJonesScorer cut(receptor, ligand, opt);
    const double setup_s = setup.seconds();
    meta::BatchedEvaluator eval(cut);
    run_with("cutoff LJ (8 A)", eval, setup_s);
  }
  {
    util::WallTimer setup;
    scoring::GridScorerOptions gopt;
    gopt.spacing = 0.5f;  // balance build time vs accuracy for this bench
    const scoring::GridScorer grid(receptor, ligand, gopt);
    const double setup_s = setup.seconds();
    meta::CallableEvaluator eval(
        [&grid](std::span<const scoring::Pose> poses, std::span<double> out) {
          grid.score_batch(poses, out);
        });
    run_with("precomputed grid (0.5 A)", eval, setup_s);
    std::printf("grid: %zu points, %zu probe grids, %.1f MB\n", grid.grid_points(),
                grid.grids_built(), static_cast<double>(grid.payload_bytes()) / 1e6);
  }
  t.print();
  std::printf("\nthe grid amortizes its build cost once evaluations dominate — the\n"
              "classic memory-for-compute trade of docking codes.\n");
  return 0;
}
