#include "meta/params.h"

#include <gtest/gtest.h>

namespace metadock::meta {
namespace {

// Table 4: initial population, % selected, % improved.
TEST(Params, M1MatchesTable4) {
  const MetaheuristicParams p = m1_genetic();
  EXPECT_EQ(p.population_per_spot, 64);
  EXPECT_DOUBLE_EQ(p.select_fraction, 1.0);
  EXPECT_DOUBLE_EQ(p.improve_fraction, 0.0);
  EXPECT_TRUE(p.population_based);
}

TEST(Params, M2MatchesTable4) {
  const MetaheuristicParams p = m2_scatter_full();
  EXPECT_EQ(p.population_per_spot, 64);
  EXPECT_DOUBLE_EQ(p.improve_fraction, 1.0);
  EXPECT_GT(p.improve_steps, 0);
}

TEST(Params, M3MatchesTable4) {
  const MetaheuristicParams p = m3_scatter_light();
  EXPECT_EQ(p.population_per_spot, 64);
  EXPECT_DOUBLE_EQ(p.improve_fraction, 0.2);
}

TEST(Params, M4MatchesTable4) {
  const MetaheuristicParams p = m4_local_search();
  EXPECT_EQ(p.population_per_spot, 1024);
  EXPECT_FALSE(p.population_based);
  EXPECT_EQ(p.generations, 1);  // "M4 applies only one step"
  EXPECT_DOUBLE_EQ(p.improve_fraction, 1.0);
}

TEST(Params, Table4PresetsInOrder) {
  const auto presets = table4_presets();
  ASSERT_EQ(presets.size(), 4u);
  EXPECT_EQ(presets[0].name, "M1");
  EXPECT_EQ(presets[3].name, "M4");
}

// The relative evaluation counts reproduce the relative execution times of
// Tables 6-9 (which are dataset-independent in the paper): M2/M1 ~ 1.62,
// M3/M1 ~ 0.51, M4/M1 ~ 50.
TEST(Params, WorkRatiosMatchPaperTables) {
  const double e1 = m1_genetic().expected_evals_per_spot();
  EXPECT_NEAR(m2_scatter_full().expected_evals_per_spot() / e1, 1.62, 0.03);
  EXPECT_NEAR(m3_scatter_light().expected_evals_per_spot() / e1, 0.51, 0.03);
  EXPECT_NEAR(m4_local_search().expected_evals_per_spot() / e1, 50.0, 1.0);
}

TEST(Params, ExpectedEvalsFormulaPopulationBased) {
  MetaheuristicParams p;
  p.population_per_spot = 10;
  p.generations = 3;
  p.improve_fraction = 0.5;
  p.improve_steps = 2;
  // init 10 + 3 * (10 combine + 10*0.5*2 improve) = 10 + 3*20 = 70.
  EXPECT_DOUBLE_EQ(p.expected_evals_per_spot(), 70.0);
}

TEST(Params, ExpectedEvalsFormulaOnePass) {
  MetaheuristicParams p;
  p.population_based = false;
  p.population_per_spot = 100;
  p.generations = 1;
  p.improve_fraction = 1.0;
  p.improve_steps = 4;
  EXPECT_DOUBLE_EQ(p.expected_evals_per_spot(), 500.0);
}

TEST(Params, ScaledReducesGenerations) {
  const MetaheuristicParams p = m1_genetic().scaled(0.25);
  EXPECT_EQ(p.generations, m1_genetic().generations / 4);
}

TEST(Params, ScaledReducesOnePassDepth) {
  const MetaheuristicParams p = m4_local_search().scaled(0.25);
  EXPECT_EQ(p.generations, 1);
  EXPECT_EQ(p.improve_steps, m4_local_search().improve_steps / 4);
}

TEST(Params, ScaledNeverBelowOne) {
  const MetaheuristicParams p = m1_genetic().scaled(1e-9);
  EXPECT_GE(p.generations, 1);
}

TEST(Params, ScaleAboveOneIsIdentity) {
  const MetaheuristicParams p = m2_scatter_full().scaled(2.0);
  EXPECT_EQ(p.generations, m2_scatter_full().generations);
}

TEST(Params, SaPresetUsesAnnealing) {
  EXPECT_EQ(sa_annealing().accept, AcceptRule::kAnnealing);
}

TEST(Params, TabuPresetUsesTabuRule) {
  EXPECT_EQ(tabu_search().accept, AcceptRule::kTabu);
}

}  // namespace
}  // namespace metadock::meta
