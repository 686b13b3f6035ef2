#include "meta/population.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "geom/quat.h"
#include "util/rng.h"

namespace metadock::meta {
namespace {

scoring::Pose sample_pose(std::uint64_t seed) {
  auto rng = util::stream(seed);
  scoring::Pose pose;
  pose.position = {static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10)),
                   static_cast<float>(rng.uniform(-10, 10))};
  pose.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  return pose;
}

bool same_pose(const scoring::Pose& a, const scoring::Pose& b) {
  return a.position.x == b.position.x && a.position.y == b.position.y &&
         a.position.z == b.position.z && a.orientation.w == b.orientation.w &&
         a.orientation.x == b.orientation.x && a.orientation.y == b.orientation.y &&
         a.orientation.z == b.orientation.z;
}

TEST(Population, SetSizeThrowsPastCapacityAndKeepsContents) {
  Population pop(4);
  pop.set_size(4);
  pop[2] = {sample_pose(7), -3.0};
  EXPECT_THROW(pop.set_size(5), std::length_error);
  // Shrink + regrow must not clobber slots below the old size.
  pop.set_size(3);
  pop.set_size(4);
  EXPECT_TRUE(same_pose(pop[2].pose, sample_pose(7)));
  EXPECT_DOUBLE_EQ(pop[2].score, -3.0);
}

TEST(Population, SortByScoreKeepsPosesWithScores) {
  Population pop(16);
  const std::vector<double> scores{4.0, -2.0, 7.0, 0.5, -9.0, 3.25};
  pop.set_size(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) pop[i] = {sample_pose(i), scores[i]};
  pop.sort_by_score();

  // Ascending scores, and every pose still travels with its score.
  const std::vector<std::size_t> expected_order{4, 1, 3, 5, 0, 2};
  for (std::size_t i = 0; i < pop.size(); ++i) {
    EXPECT_DOUBLE_EQ(pop[i].score, scores[expected_order[i]]);
    EXPECT_TRUE(same_pose(pop[i].pose, sample_pose(expected_order[i]))) << i;
  }
}

TEST(Population, MergeKeepBestIsElitist) {
  Population s(8);
  Population scom(4);
  s.set_size(4);
  const std::vector<double> base{1.0, 2.0, 3.0, 4.0};
  for (std::size_t i = 0; i < 4; ++i) s[i] = {sample_pose(i), base[i]};
  scom.set_size(2);
  scom[0] = {sample_pose(10), 0.5};   // better than everything
  scom[1] = {sample_pose(11), 99.0};  // worse than everything

  s.merge_keep_best(scom, 4);

  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0].score, 0.5);
  EXPECT_TRUE(same_pose(s[0].pose, sample_pose(10)));
  EXPECT_DOUBLE_EQ(s[1].score, 1.0);
  EXPECT_DOUBLE_EQ(s[3].score, 3.0);  // the 99.0 and the old 4.0 fell off
  // A merge past the capacity throws instead of growing.
  Population small(3);
  small.set_size(2);
  EXPECT_THROW(small.merge_keep_best(scom, 3), std::length_error);
}

TEST(Population, CopyFromReplicatesExactly) {
  Population a(4);
  Population b(4);
  a.set_size(3);
  for (std::size_t i = 0; i < 3; ++i) a[i] = {sample_pose(20 + i), double(i)};
  b.copy_from(a);
  ASSERT_EQ(b.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(same_pose(b[i].pose, a[i].pose));
    EXPECT_DOUBLE_EQ(b[i].score, a[i].score);
  }
}

}  // namespace
}  // namespace metadock::meta
