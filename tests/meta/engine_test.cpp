#include "meta/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "meta/batch_collector.h"
#include "meta/trace.h"
#include "mol/synth.h"
#include "util/thread_pool.h"

namespace metadock::meta {

// Print a preset by its name.  gtest appends the printed parameter to
// every listed test name, and the default byte dump would carry the
// heap pointer inside `name`, which differs from one run to the next.
// ADL finds this only in MetaheuristicParams' own namespace, so it stays
// outside the anonymous one.
inline void PrintTo(const MetaheuristicParams& p, std::ostream* os) { *os << p.name; }

namespace {

// Small shared problem so the full numeric engine stays fast.
const DockingProblem& problem() {
  static const DockingProblem p = [] {
    mol::ReceptorParams rp;
    rp.atom_count = 400;
    rp.seed = 7;
    static const mol::Molecule receptor = mol::make_receptor(rp);
    mol::LigandParams lp;
    lp.atom_count = 12;
    lp.seed = 8;
    static const mol::Molecule ligand = mol::make_ligand(lp);
    return make_problem(receptor, ligand, /*seed=*/42);
  }();
  return p;
}

MetaheuristicParams tiny(const MetaheuristicParams& base, int pop = 8, int gens = 3) {
  MetaheuristicParams p = base;
  p.population_per_spot = pop;
  if (p.population_based) {
    p.generations = gens;
  } else {
    p.improve_steps = std::min(p.improve_steps, 6);
  }
  return p;
}

TEST(Engine, ProblemFactoryFindsSpotsAndRadius) {
  EXPECT_GT(problem().spots.size(), 5u);
  EXPECT_GT(problem().ligand_radius, 0.5f);
}

TEST(Engine, MakeProblemRejectsEmptyMolecules) {
  const mol::Molecule empty;
  mol::LigandParams lp;
  const mol::Molecule lig = mol::make_ligand(lp);
  EXPECT_THROW((void)make_problem(empty, lig), std::invalid_argument);
}

TEST(Engine, InvalidParamsThrow) {
  MetaheuristicParams p = m1_genetic();
  p.population_per_spot = 0;
  EXPECT_THROW(MetaheuristicEngine{p}, std::invalid_argument);
  p = m1_genetic();
  p.generations = 0;
  EXPECT_THROW(MetaheuristicEngine{p}, std::invalid_argument);
  p = m1_genetic();
  p.select_fraction = 0.0;
  EXPECT_THROW(MetaheuristicEngine{p}, std::invalid_argument);
  p = m1_genetic();
  p.improve_fraction = 1.5;
  EXPECT_THROW(MetaheuristicEngine{p}, std::invalid_argument);
}

TEST(Engine, ReturnsOneResultPerSpot) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const RunResult r = MetaheuristicEngine(tiny(m1_genetic())).run(problem(), eval);
  EXPECT_EQ(r.spot_results.size(), problem().spots.size());
}

TEST(Engine, BestIsMinimumOverSpots) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const RunResult r = MetaheuristicEngine(tiny(m2_scatter_full())).run(problem(), eval);
  double min_score = r.spot_results.front().best.score;
  for (const SpotResult& sr : r.spot_results) min_score = std::min(min_score, sr.best.score);
  EXPECT_DOUBLE_EQ(r.best.score, min_score);
}

TEST(Engine, DeterministicAcrossRuns) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator e1(scorer), e2(scorer);
  const MetaheuristicEngine engine(tiny(m2_scatter_full()));
  const RunResult a = engine.run(problem(), e1);
  const RunResult b = engine.run(problem(), e2);
  ASSERT_EQ(a.spot_results.size(), b.spot_results.size());
  for (std::size_t i = 0; i < a.spot_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.spot_results[i].best.score, b.spot_results[i].best.score);
  }
}

TEST(Engine, SeedChangesTrajectories) {
  DockingProblem p2 = problem();
  p2.seed = 43;
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator e1(scorer), e2(scorer);
  const MetaheuristicEngine engine(tiny(m1_genetic()));
  const RunResult a = engine.run(problem(), e1);
  const RunResult b = engine.run(p2, e2);
  EXPECT_NE(a.best.score, b.best.score);
}

// THE key scheduling property: a spot's result is identical whether it runs
// alone, with all spots, or in any subset — which is why splitting work
// across heterogeneous devices cannot change the science.
TEST(Engine, SpotResultsAreSubsetInvariant) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  const MetaheuristicEngine engine(tiny(m2_scatter_full()));

  BatchedEvaluator e_all(scorer);
  const RunResult all = engine.run(problem(), e_all);

  // Run spots {2, 5} as a pair, and spot 5 alone.
  const std::vector<std::size_t> pair{2, 5};
  const std::vector<std::size_t> solo{5};
  BatchedEvaluator e_pair(scorer), e_solo(scorer);
  const RunResult r_pair = engine.run(problem(), e_pair, pair);
  const RunResult r_solo = engine.run(problem(), e_solo, solo);

  auto find = [](const RunResult& r, int id) {
    for (const SpotResult& sr : r.spot_results) {
      if (sr.spot_id == id) return sr.best.score;
    }
    ADD_FAILURE() << "spot " << id << " missing";
    return 0.0;
  };
  EXPECT_DOUBLE_EQ(find(all, 2), find(r_pair, 2));
  EXPECT_DOUBLE_EQ(find(all, 5), find(r_pair, 5));
  EXPECT_DOUBLE_EQ(find(all, 5), find(r_solo, 5));
}

TEST(Engine, MoreGenerationsNeverWorseBest) {
  // Elitist Include: the best individual can only improve with more
  // generations under the same seed.
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams p = tiny(m2_scatter_full(), 8, 1);
  BatchedEvaluator e1(scorer);
  const double best1 = MetaheuristicEngine(p).run(problem(), e1).best.score;
  p.generations = 5;
  BatchedEvaluator e5(scorer);
  const double best5 = MetaheuristicEngine(p).run(problem(), e5).best.score;
  EXPECT_LE(best5, best1);
}

TEST(Engine, ImproveLowersEnergyVersusNoImprove) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams no_ls = tiny(m1_genetic(), 8, 4);
  MetaheuristicParams ls = no_ls;
  ls.improve_fraction = 1.0;
  ls.improve_steps = 6;
  BatchedEvaluator e1(scorer), e2(scorer);
  const double without = MetaheuristicEngine(no_ls).run(problem(), e1).best.score;
  const double with_ls = MetaheuristicEngine(ls).run(problem(), e2).best.score;
  EXPECT_LE(with_ls, without);
}

TEST(Engine, EvaluationCountMatchesFormula) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  for (const MetaheuristicParams& base : table4_presets()) {
    const MetaheuristicParams p = tiny(base);
    BatchedEvaluator eval(scorer);
    const RunResult r = MetaheuristicEngine(p).run(problem(), eval);
    EXPECT_DOUBLE_EQ(static_cast<double>(r.evaluations),
                     p.expected_evals_per_spot() * static_cast<double>(problem().spots.size()))
        << p.name;
  }
}

TEST(Engine, BatchScheduleMatchesAnalyticTrace) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  for (const MetaheuristicParams& base : table4_presets()) {
    const MetaheuristicParams p = tiny(base);
    BatchedEvaluator eval(scorer);
    const RunResult r = MetaheuristicEngine(p).run(problem(), eval);
    const WorkloadTrace trace = WorkloadTrace::from_params(p);
    ASSERT_EQ(r.batch_sizes.size(), trace.per_spot_batches.size()) << p.name;
    for (std::size_t i = 0; i < trace.per_spot_batches.size(); ++i) {
      EXPECT_EQ(r.batch_sizes[i], trace.per_spot_batches[i] * problem().spots.size())
          << p.name << " batch " << i;
    }
  }
}

TEST(Engine, M4RunsOnePassOfPureLocalSearch) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams p = m4_local_search();
  p.population_per_spot = 16;
  p.improve_steps = 4;
  BatchedEvaluator eval(scorer);
  const RunResult r = MetaheuristicEngine(p).run(problem(), eval);
  // init + 4 improve batches, no combine batches.
  EXPECT_EQ(r.batch_sizes.size(), 5u);
  EXPECT_GT(r.evaluations, 0u);
}

TEST(Engine, AnnealingRuleRunsAndElitismHolds) {
  // SA may accept worse moves inside Improve, but Include is elitist, so
  // the run-best is still monotone in generations (the first generation's
  // trajectory is a shared prefix under the same seed).
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams p1 = tiny(sa_annealing(), 8, 1);
  MetaheuristicParams p3 = tiny(sa_annealing(), 8, 3);
  BatchedEvaluator e1(scorer), e3(scorer);
  const double best1 = MetaheuristicEngine(p1).run(problem(), e1).best.score;
  const double best3 = MetaheuristicEngine(p3).run(problem(), e3).best.score;
  EXPECT_LE(best3, best1);
  EXPECT_LT(best3, 0.0);
}

TEST(Engine, TabuRuleRunsAndDiffersFromGreedy) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams greedy = tiny(m2_scatter_full(), 8, 3);
  MetaheuristicParams tabu = greedy;
  tabu.accept = AcceptRule::kTabu;
  BatchedEvaluator e1(scorer), e2(scorer);
  const RunResult rg = MetaheuristicEngine(greedy).run(problem(), e1);
  const RunResult rt = MetaheuristicEngine(tabu).run(problem(), e2);
  // Same evaluation schedule, different accepted trajectories.
  EXPECT_EQ(rg.evaluations, rt.evaluations);
  EXPECT_NE(rg.best.score, rt.best.score);
  EXPECT_LT(rt.best.score, 0.0);
}

TEST(Engine, TabuIsDeterministic) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  MetaheuristicParams p = tiny(tabu_search(), 8, 2);
  BatchedEvaluator e1(scorer), e2(scorer);
  const double a = MetaheuristicEngine(p).run(problem(), e1).best.score;
  const double b = MetaheuristicEngine(p).run(problem(), e2).best.score;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Engine, BadSpotIndexThrows) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const std::vector<std::size_t> bad{problem().spots.size() + 10};
  EXPECT_THROW((void)MetaheuristicEngine(tiny(m1_genetic())).run(problem(), eval, bad),
               std::out_of_range);
}

// Property sweep across every preset (the paper's four plus the two
// extension rules): determinism, monotone elitism, and schedule-analytic
// batch counts must hold for all of them.
class PresetSweep : public ::testing::TestWithParam<MetaheuristicParams> {
 protected:
  [[nodiscard]] MetaheuristicParams shrunk() const {
    return tiny(GetParam(), 8, 2);
  }
};

TEST_P(PresetSweep, DeterministicBestScore) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator e1(scorer), e2(scorer);
  const MetaheuristicEngine engine(shrunk());
  EXPECT_DOUBLE_EQ(engine.run(problem(), e1).best.score,
                   engine.run(problem(), e2).best.score);
}

TEST_P(PresetSweep, FindsAttractivePose) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  EXPECT_LT(MetaheuristicEngine(shrunk()).run(problem(), eval).best.score, 0.0);
}

TEST_P(PresetSweep, EvaluationsMatchFormula) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const MetaheuristicParams p = shrunk();
  const RunResult r = MetaheuristicEngine(p).run(problem(), eval);
  EXPECT_DOUBLE_EQ(static_cast<double>(r.evaluations),
                   p.expected_evals_per_spot() * static_cast<double>(problem().spots.size()));
}

/// True when two individuals hold the same bits: score and every pose
/// coordinate.
bool same_bits(const Individual& a, const Individual& b) {
  static_assert(sizeof(scoring::Pose) == 7 * sizeof(float), "Pose has padding");
  return std::bit_cast<std::uint64_t>(a.score) == std::bit_cast<std::uint64_t>(b.score) &&
         std::memcmp(&a.pose, &b.pose, sizeof(scoring::Pose)) == 0;
}

// The per-spot phases run on the global pool when run() is called from the
// main thread, and inline when it is called from inside a pool task.  Both
// must take the same trajectory, bit for bit, in the same batches.
TEST_P(PresetSweep, PooledPhasesMatchInlinePhasesBitForBit) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  const MetaheuristicEngine engine(shrunk());
  BatchedEvaluator pooled_eval(scorer), inline_eval(scorer);
  const RunResult pooled = engine.run(problem(), pooled_eval);
  RunResult inlined;
  util::ThreadPool::global().parallel_for(
      1, [&](std::size_t) { inlined = engine.run(problem(), inline_eval); });

  EXPECT_TRUE(same_bits(pooled.best, inlined.best));
  EXPECT_EQ(pooled.best_spot_id, inlined.best_spot_id);
  EXPECT_EQ(pooled.evaluations, inlined.evaluations);
  EXPECT_EQ(pooled.batch_sizes, inlined.batch_sizes);
  ASSERT_EQ(pooled.spot_results.size(), inlined.spot_results.size());
  for (std::size_t i = 0; i < pooled.spot_results.size(); ++i) {
    EXPECT_EQ(pooled.spot_results[i].spot_id, inlined.spot_results[i].spot_id);
    EXPECT_TRUE(same_bits(pooled.spot_results[i].best, inlined.spot_results[i].best))
        << "spot " << pooled.spot_results[i].spot_id;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetSweep,
                         ::testing::Values(m1_genetic(), m2_scatter_full(),
                                           m3_scatter_light(), m4_local_search(),
                                           sa_annealing(), tabu_search()),
                         [](const auto& info) { return info.param.name; });

TEST(BatchCollector, ThrowsPastItsCapacity) {
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  RunResult result;
  BatchCollector batch(eval, result, nullptr, 2);
  double scores[2] = {0.0, 0.0};
  batch.set(1, scoring::Pose{}, &scores[1]);
  batch.set(0, scoring::Pose{}, &scores[0]);
  EXPECT_THROW(batch.set(2, scoring::Pose{}, &scores[0]), std::length_error);
  EXPECT_THROW(batch.flush(3), std::length_error);
  batch.flush(2);
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_EQ(result.evaluations, 2u);
  EXPECT_EQ(result.batch_sizes, std::vector<std::size_t>{2});
}

TEST(Engine, BestScoresAreNegative) {
  // With a well-formed LJ landscape, docking finds attractive poses.
  scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const RunResult r = MetaheuristicEngine(tiny(m2_scatter_full(), 16, 4)).run(problem(), eval);
  EXPECT_LT(r.best.score, 0.0);
}

}  // namespace
}  // namespace metadock::meta
