// The generation loop's allocation contract (DESIGN.md §12): every buffer
// MetaheuristicEngine::run touches is sized before the first generation,
// so the number of heap allocations in a run does not depend on how many
// generations it runs.  This binary replaces the global operator new with
// a counting one, which is why it is a test target of its own: linked into
// meta_test it would count for every test there.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "meta/engine.h"
#include "meta/evaluator.h"
#include "mol/synth.h"
#include "scoring/lennard_jones.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_new_nothrow(std::size_t size) noexcept {
  try {
    return counted_new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every non-aligned form is replaced, so each delete frees memory that the
// matching new took from malloc (sanitizer builds check that pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace metadock::meta {
namespace {

const DockingProblem& problem() {
  static const DockingProblem p = [] {
    mol::ReceptorParams rp;
    rp.atom_count = 300;
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

/// operator new calls made inside one MetaheuristicEngine::run.
std::size_t news_during_run(const MetaheuristicEngine& engine, Evaluator& eval) {
  g_news.store(0);
  g_counting.store(true);
  const RunResult r = engine.run(problem(), eval);
  g_counting.store(false);
  EXPECT_GT(r.evaluations, 0u);
  return g_news.load();
}

TEST(Engine, GenerationLoopDoesNotAllocate) {
  const scoring::LennardJonesScorer scorer(*problem().receptor, *problem().ligand);
  BatchedEvaluator eval(scorer);
  const std::vector<MetaheuristicParams> presets{m1_genetic(),       m2_scatter_full(),
                                                 m3_scatter_light(), m4_local_search(),
                                                 sa_annealing(),     tabu_search()};
  for (const MetaheuristicParams& preset : presets) {
    const auto with_generations = [&preset](int generations) {
      MetaheuristicParams p = preset;
      p.population_per_spot = 8;
      p.generations = generations;
      p.improve_steps = std::min(p.improve_steps, 3);
      return MetaheuristicEngine(p);
    };
    const MetaheuristicEngine two = with_generations(2);
    const MetaheuristicEngine four = with_generations(4);
    (void)four.run(problem(), eval);  // warms the evaluator's scratch
    const std::size_t at_two = news_during_run(two, eval);
    const std::size_t at_four = news_during_run(four, eval);
    EXPECT_EQ(at_two, at_four) << preset.name << ": " << at_two << " allocations at 2 generations, "
                               << at_four << " at 4";
  }
}

}  // namespace
}  // namespace metadock::meta
