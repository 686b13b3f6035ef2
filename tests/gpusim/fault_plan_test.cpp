#include "gpusim/fault_plan.h"

#include <gtest/gtest.h>

#include "gpusim/device.h"
#include "gpusim/device_db.h"
#include "gpusim/runtime.h"
#include "testing/fixtures.h"

namespace metadock::gpusim {
namespace {

KernelLaunch small_launch() {
  KernelLaunch l;
  l.grid_blocks = 32;
  l.block_threads = 128;
  return l;
}

KernelCost small_cost() {
  KernelCost c;
  c.flops = 1e9;
  return c;
}

/// Fault-free launch time of `small_launch` on a GTX 580.
double baseline_launch_seconds() {
  static const double t = [] {
    Device dev(geforce_gtx580());
    dev.launch(small_launch(), small_cost());
    return dev.busy_seconds();
  }();
  return t;
}

TEST(FaultPlan, BuilderValidatesArguments) {
  FaultPlan p;
  EXPECT_THROW(p.kill(-1, 1.0), std::invalid_argument);
  EXPECT_THROW(p.kill(0, -1.0), std::invalid_argument);
  EXPECT_THROW(p.transient(0, -0.1), std::invalid_argument);
  EXPECT_THROW(p.transient(0, 1.5), std::invalid_argument);
  EXPECT_THROW(p.straggle(0, -1.0, 2.0), std::invalid_argument);
  EXPECT_THROW(p.straggle(0, 1.0, 0.5), std::invalid_argument);
  EXPECT_TRUE(p.empty());
}

TEST(FaultPlan, EntriesForSameDeviceMerge) {
  FaultPlan p;
  p.kill(2, 5.0).kill(2, 3.0).transient(2, 0.1).transient(2, 0.4).straggle(2, 9.0, 2.0);
  const DeviceFaultSpec s = p.for_device(2);
  EXPECT_DOUBLE_EQ(s.death_at_seconds, 3.0);       // earliest death wins
  EXPECT_DOUBLE_EQ(s.transient_probability, 0.4);  // highest probability wins
  EXPECT_DOUBLE_EQ(s.straggle_after_seconds, 9.0);
  EXPECT_DOUBLE_EQ(s.straggle_factor, 2.0);
  EXPECT_TRUE(p.for_device(0).benign());
}

TEST(FaultPlan, DeathStopsClockAtBoundary) {
  const double t = baseline_launch_seconds();
  Device dev(geforce_gtx580());
  DeviceFaultSpec fault;
  fault.device = 0;
  fault.death_at_seconds = 2.5 * t;  // dies mid-third-launch
  dev.set_fault(fault, 1);

  dev.launch(small_launch(), small_cost());
  dev.launch(small_launch(), small_cost());
  EXPECT_FALSE(dev.is_dead());
  EXPECT_THROW(dev.launch(small_launch(), small_cost()), DeviceLostError);
  EXPECT_TRUE(dev.is_dead());
  // The clock stops at the death boundary, not at the launch's full length.
  EXPECT_NEAR(dev.busy_seconds(), 2.5 * t, 1e-9);
  // Dead devices reject further launches without advancing time.
  EXPECT_THROW(dev.launch(small_launch(), small_cost()), DeviceLostError);
  EXPECT_NEAR(dev.busy_seconds(), 2.5 * t, 1e-9);
  EXPECT_EQ(dev.kernels_launched(), 2u);
}

TEST(FaultPlan, DeathAtTimeZeroIsDeadOnArrival) {
  Device dev(geforce_gtx580());
  DeviceFaultSpec fault;
  fault.death_at_seconds = 0.0;
  dev.set_fault(fault, 1);
  EXPECT_TRUE(dev.is_dead());
  EXPECT_THROW(dev.launch(small_launch(), small_cost()), DeviceLostError);
}

TEST(FaultPlan, TransientProbabilityEndpoints) {
  DeviceFaultSpec always;
  always.transient_probability = 1.0;
  Device flaky(geforce_gtx580());
  flaky.set_fault(always, 3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(flaky.launch(small_launch(), small_cost()), TransientFaultError);
  }
  EXPECT_EQ(flaky.transient_faults_injected(), 5u);
  // A failed launch still pays its kernel time (the work was attempted).
  EXPECT_NEAR(flaky.busy_seconds(), 5.0 * baseline_launch_seconds(), 1e-9);

  DeviceFaultSpec never;
  never.transient_probability = 0.0;
  Device solid(geforce_gtx580());
  solid.set_fault(never, 3);
  for (int i = 0; i < 5; ++i) solid.launch(small_launch(), small_cost());
  EXPECT_EQ(solid.transient_faults_injected(), 0u);
}

TEST(FaultPlan, TransientSequenceIsSeededAndReproducible) {
  auto fault_pattern = [](std::uint64_t seed) {
    DeviceFaultSpec fault;
    fault.transient_probability = 0.5;
    Device dev(geforce_gtx580());
    dev.set_fault(fault, seed);
    std::vector<bool> failed;
    for (int i = 0; i < 64; ++i) {
      try {
        dev.launch(small_launch(), small_cost());
        failed.push_back(false);
      } catch (const TransientFaultError&) {
        failed.push_back(true);
      }
    }
    return failed;
  };
  EXPECT_EQ(fault_pattern(11), fault_pattern(11));
  EXPECT_NE(fault_pattern(11), fault_pattern(12));
}

TEST(FaultPlan, StraggleMultipliesKernelTimeAfterOnset) {
  const double t = baseline_launch_seconds();
  Device dev(geforce_gtx580());
  DeviceFaultSpec fault;
  fault.straggle_after_seconds = 1.5 * t;
  fault.straggle_factor = 3.0;
  dev.set_fault(fault, 1);

  dev.launch(small_launch(), small_cost());  // before onset: full speed
  EXPECT_NEAR(dev.busy_seconds(), t, 1e-9);
  dev.launch(small_launch(), small_cost());  // clock at t < onset: still fast
  EXPECT_NEAR(dev.busy_seconds(), 2.0 * t, 1e-9);
  dev.launch(small_launch(), small_cost());  // clock at 2t >= onset: x3
  EXPECT_NEAR(dev.busy_seconds(), 5.0 * t, 1e-9);
  EXPECT_DOUBLE_EQ(dev.slowdown(), 3.0);
}

TEST(FaultPlan, ResetRevivesTheDevice) {
  Device dev(geforce_gtx580());
  DeviceFaultSpec fault;
  fault.death_at_seconds = 1.0;
  dev.set_fault(fault, 1);
  dev.advance_seconds(2.0);
  EXPECT_TRUE(dev.is_dead());
  dev.reset();
  // The clock is back before the death time, so the device runs again.
  EXPECT_FALSE(dev.is_dead());
  EXPECT_NO_THROW(dev.launch(small_launch(), small_cost()));
}

TEST(FaultPlan, RuntimeAttachesFaultsPerOrdinal) {
  FaultPlan plan(99);
  plan.kill(1, 0.0).transient(0, 0.25);
  gpusim::Runtime rt = metadock::testing::mixed_node_runtime(plan);
  EXPECT_DOUBLE_EQ(rt.device(0).fault().transient_probability, 0.25);
  EXPECT_FALSE(rt.device(0).is_dead());
  EXPECT_TRUE(rt.device(1).is_dead());
  EXPECT_EQ(rt.alive_count(), 1);
  EXPECT_EQ(rt.fault_plan().seed(), 99u);
}

TEST(FaultPlan, CopiesStillWorkOnDeadDevices) {
  // cudaMemcpy on a lost device is the scheduler's problem to avoid; the
  // model charges it rather than hiding the time.
  Device dev(geforce_gtx580());
  DeviceFaultSpec fault;
  fault.death_at_seconds = 0.0;
  dev.set_fault(fault, 1);
  EXPECT_NO_THROW(dev.copy_to_device(1e6));
}

}  // namespace
}  // namespace metadock::gpusim
