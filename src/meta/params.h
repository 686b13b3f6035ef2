// Parameterized metaheuristic configuration (the paper's Algorithm 1).
//
// "Several authors agree that many metaheuristics ... share six basic
// functions: Initialize, End condition, Select, Combine, Improve and
// Include."  MetaDock implements that template once, in
// meta::MetaheuristicEngine; a MetaheuristicParams value instantiates it
// into a concrete metaheuristic.  The four presets below are the paper's
// Table 4 rows, with generation/local-search depths chosen so the relative
// evaluation counts match the relative execution times of Tables 6-9
// (M2 ~ 1.62x M1, M3 ~ 0.5x M1, M4 ~ 50x M1).
#pragma once

#include <string>
#include <vector>

namespace metadock::meta {

/// Move-acceptance rule used by the Improve (local search) phase.
enum class AcceptRule {
  kGreedy,     // hill climbing: accept strictly better neighbours
  kAnnealing,  // simulated annealing: accept worse moves with exp(-dE/T)
  kTabu,       // tabu search: recently visited positions are forbidden
               // unless the move beats the slot's best (aspiration)
};

struct MetaheuristicParams {
  std::string name = "M1";

  /// Candidate solutions maintained per receptor spot (Table 4 column
  /// "Initial population" is population_per_spot * spots).
  int population_per_spot = 64;

  /// End condition: number of template iterations.  A neighbourhood
  /// metaheuristic (M4) "applies only one step".
  int generations = 100;

  /// Fraction of S selected into Ssel as the mating pool.
  double select_fraction = 1.0;

  /// Fraction of Scom improved by local search (Table 4 last column).
  double improve_fraction = 0.0;

  /// Local-search steps applied to each improved element.
  int improve_steps = 0;

  /// True for population-based metaheuristics (M1-M3): Select/Combine/
  /// Include run every generation.  False for neighbourhood metaheuristics
  /// (M4): the initial set is only improved, no recombination.
  bool population_based = true;

  /// Move acceptance in Improve.  The operator scales, the annealing
  /// schedule and the tabu memory are constants of meta/engine.cpp.
  AcceptRule accept = AcceptRule::kGreedy;

  /// Scales generations (and M4's improve_steps) down for fast runs; the
  /// virtual-time harness extrapolates back (see vs::BenchScale).
  [[nodiscard]] MetaheuristicParams scaled(double factor) const;

  /// Scoring evaluations one spot performs under this configuration
  /// (initialization + per-generation combine + improve).
  [[nodiscard]] double expected_evals_per_spot() const;
};

/// Table 4 presets.
[[nodiscard]] MetaheuristicParams m1_genetic();        // GA, no local search
[[nodiscard]] MetaheuristicParams m2_scatter_full();   // scatter-search-like, 100% improved
[[nodiscard]] MetaheuristicParams m3_scatter_light();  // 20% improved
[[nodiscard]] MetaheuristicParams m4_local_search();   // multi-start local search

/// All four, in paper order.
[[nodiscard]] std::vector<MetaheuristicParams> table4_presets();

/// Extension presets (beyond the paper's four, exercising the same
/// template with the alternative acceptance rules the paper's background
/// section lists): simulated annealing and tabu search.
[[nodiscard]] MetaheuristicParams sa_annealing();
[[nodiscard]] MetaheuristicParams tabu_search();

}  // namespace metadock::meta
