#include "vs/report.h"

#include <gtest/gtest.h>

namespace metadock::vs {
namespace {

LigandHit sample_hit() {
  LigandHit h;
  h.ligand_index = 3;
  h.ligand_name = "lig-3";
  h.best_score = -12.5;
  h.best_spot_id = 7;
  h.best_pose.position = {1.0f, 2.0f, 3.0f};
  h.virtual_seconds = 0.25;
  h.energy_joules = 42.0;
  return h;
}

TEST(Report, HitsJsonContainsAllFields) {
  const std::string json = hits_to_json("2BSM", "Hertz", {sample_hit()});
  EXPECT_NE(json.find(R"("receptor":"2BSM")"), std::string::npos);
  EXPECT_NE(json.find(R"("node":"Hertz")"), std::string::npos);
  EXPECT_NE(json.find(R"("ligand":"lig-3")"), std::string::npos);
  EXPECT_NE(json.find(R"("best_energy":-12.5)"), std::string::npos);
  EXPECT_NE(json.find(R"("spot":7)"), std::string::npos);
  EXPECT_NE(json.find(R"("x":1)"), std::string::npos);
  EXPECT_NE(json.find(R"("virtual_seconds":0.25)"), std::string::npos);
}

TEST(Report, EmptyHitListIsValid) {
  const std::string json = hits_to_json("r", "n", {});
  EXPECT_NE(json.find(R"("hits":[])"), std::string::npos);
}

TEST(Report, HitsJsonEmitsFaultsOnlyWhenAnyOccurred) {
  LigandHit clean = sample_hit();
  EXPECT_EQ(hits_to_json("r", "n", {clean}).find("\"faults\""), std::string::npos);

  LigandHit faulty = sample_hit();
  faulty.faults.transient_faults = 4;
  faulty.faults.retries = 3;
  faulty.faults.lost_devices = {1};
  faulty.faults.devices_lost = 1;
  faulty.faults.degraded_to_cpu = true;
  const std::string json = hits_to_json("r", "n", {faulty});
  EXPECT_NE(json.find(R"("transient_faults":4)"), std::string::npos);
  EXPECT_NE(json.find(R"("retries":3)"), std::string::npos);
  EXPECT_NE(json.find(R"("lost_devices":[1])"), std::string::npos);
  EXPECT_NE(json.find(R"("degraded_to_cpu":true)"), std::string::npos);
}

}  // namespace
}  // namespace metadock::vs
