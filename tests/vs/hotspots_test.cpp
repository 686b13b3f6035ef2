#include "vs/hotspots.h"

#include <gtest/gtest.h>

#include "meta/evaluator.h"
#include "testing/fixtures.h"

namespace metadock::vs {
namespace {

const meta::RunResult& run() {
  static const meta::RunResult r = [] {
    const meta::DockingProblem& p = testing::tiny_problem();
    static const scoring::LennardJonesScorer scorer(*p.receptor, *p.ligand);
    meta::MetaheuristicParams params = meta::m3_scatter_light();
    params.population_per_spot = 8;
    params.generations = 2;
    meta::BatchedEvaluator eval(scorer);
    return meta::MetaheuristicEngine(params).run(p, eval);
  }();
  return r;
}

TEST(Hotspots, MapCoversEveryVisitedSpotSortedBestFirst) {
  const auto map = surface_score_map(run(), testing::tiny_problem().spots);
  ASSERT_EQ(map.size(), run().spot_results.size());
  for (std::size_t i = 1; i < map.size(); ++i) {
    EXPECT_LE(map[i - 1].best_energy, map[i].best_energy);
  }
}

TEST(Hotspots, MapCarriesSpotGeometry) {
  const auto& spots = testing::tiny_problem().spots;
  const auto map = surface_score_map(run(), spots);
  for (const SpotScore& s : map) {
    ASSERT_GE(s.spot_id, 0);
    ASSERT_LT(static_cast<std::size_t>(s.spot_id), spots.size());
    EXPECT_EQ(s.center, spots[static_cast<std::size_t>(s.spot_id)].center);
  }
}

TEST(Hotspots, UnknownSpotThrows) {
  meta::RunResult bogus = run();
  bogus.spot_results.front().spot_id = 99999;
  EXPECT_THROW((void)surface_score_map(bogus, testing::tiny_problem().spots),
               std::invalid_argument);
}

TEST(Hotspots, HotspotsAreTopFractionAndAttractive) {
  const auto map = surface_score_map(run(), testing::tiny_problem().spots);
  const auto hot = hotspots(map, 0.2);
  ASSERT_FALSE(hot.empty());
  EXPECT_LE(hot.size(), map.size());
  EXPECT_EQ(hot.front().spot_id, map.front().spot_id);
  const double best = map.front().best_energy;
  const double worst = map.back().best_energy;
  for (const SpotScore& s : hot) {
    EXPECT_LT(s.best_energy, 0.0);
    EXPECT_LE(s.best_energy, best + 0.2 * (worst - best) + 1e-12);
  }
}

TEST(Hotspots, ZeroFractionKeepsOnlyTheBest) {
  const auto map = surface_score_map(run(), testing::tiny_problem().spots);
  const auto hot = hotspots(map, 0.0);
  ASSERT_GE(hot.size(), 1u);
  for (const SpotScore& s : hot) {
    EXPECT_DOUBLE_EQ(s.best_energy, map.front().best_energy);
  }
}

TEST(Hotspots, FullFractionKeepsAllAttractive) {
  const auto map = surface_score_map(run(), testing::tiny_problem().spots);
  std::size_t attractive = 0;
  for (const SpotScore& s : map) attractive += s.best_energy < 0.0;
  EXPECT_EQ(hotspots(map, 1.0).size(), attractive);
}

TEST(Hotspots, EmptyAndInvalidInputs) {
  EXPECT_TRUE(hotspots({}, 0.2).empty());
  const auto map = surface_score_map(run(), testing::tiny_problem().spots);
  EXPECT_THROW((void)hotspots(map, -0.1), std::invalid_argument);
  EXPECT_THROW((void)hotspots(map, 1.1), std::invalid_argument);
}

TEST(Hotspots, AllRepulsiveMapYieldsNoHotspots) {
  std::vector<SpotScore> map(3);
  map[0].best_energy = 1.0;
  map[1].best_energy = 2.0;
  map[2].best_energy = 3.0;
  EXPECT_TRUE(hotspots(map, 0.5).empty());
}

}  // namespace
}  // namespace metadock::vs
