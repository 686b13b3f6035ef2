#include "gpusim/device.h"

#include <gtest/gtest.h>

#include "gpusim/device_db.h"

namespace metadock::gpusim {
namespace {

KernelLaunch small_launch() {
  KernelLaunch l;
  l.grid_blocks = 32;
  l.block_threads = 128;
  return l;
}

TEST(Device, ClockStartsAtZero) {
  Device dev(geforce_gtx580());
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 0u);
}

TEST(Device, LaunchAdvancesClockAndCounts) {
  Device dev(geforce_gtx580());
  KernelCost c;
  c.flops = 1e9;
  dev.launch(small_launch(), c);
  EXPECT_GT(dev.busy_seconds(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(Device, TransfersAdvanceClockAndAccumulateBytes) {
  Device dev(geforce_gtx580());
  dev.copy_to_device(1e6);
  const double t1 = dev.busy_seconds();
  EXPECT_GT(t1, 0.0);
  dev.copy_from_device(2e6);
  EXPECT_GT(dev.busy_seconds(), t1);
  EXPECT_DOUBLE_EQ(dev.bytes_transferred(), 3e6);
}

TEST(Device, AdvanceSecondsAddsStallTime) {
  Device dev(geforce_gtx580());
  dev.advance_seconds(0.5);
  EXPECT_NEAR(dev.busy_seconds(), 0.5, 1e-9);
}

TEST(Device, EnergyTracksBusyTime) {
  Device dev(geforce_gtx580());
  dev.advance_seconds(2.0);
  EXPECT_NEAR(dev.energy_joules(), dev.spec().tdp_watts * 2.0 * 0.85, 1e-6);
}

TEST(Device, ResetClearsEverything) {
  Device dev(geforce_gtx580());
  KernelCost c;
  c.flops = 1e9;
  dev.launch(small_launch(), c);
  dev.copy_to_device(100.0);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 0u);
  EXPECT_DOUBLE_EQ(dev.bytes_transferred(), 0.0);
}

TEST(Device, AllocationTracksAndEnforcesCapacity) {
  DeviceSpec spec = geforce_gtx580();  // 1.536 GB
  Device dev(spec);
  dev.allocate(1e9);
  EXPECT_DOUBLE_EQ(dev.allocated_bytes(), 1e9);
  EXPECT_THROW(dev.allocate(1e9), std::runtime_error);  // 2 GB > 1.536 GB
  dev.deallocate(5e8);
  EXPECT_DOUBLE_EQ(dev.allocated_bytes(), 5e8);
  dev.allocate(1e9);  // fits now
  dev.deallocate(1e20);
  EXPECT_DOUBLE_EQ(dev.allocated_bytes(), 0.0);  // clamped at zero
}

TEST(Device, ResetReleasesAllocations) {
  Device dev(geforce_gtx580());
  dev.allocate(1e9);
  dev.reset();
  EXPECT_DOUBLE_EQ(dev.allocated_bytes(), 0.0);
}

TEST(Device, OrdinalIsStored) {
  Device dev(geforce_gtx580(), 3);
  EXPECT_EQ(dev.ordinal(), 3);
}

TEST(VirtualClock, AccumulatesAndConverts) {
  VirtualClock c;
  c.advance_seconds(1.5);
  c.advance_ns(500'000'000);
  EXPECT_NEAR(c.seconds(), 2.0, 1e-9);
  EXPECT_EQ(c.nanoseconds(), 2'000'000'000u);
  c.reset();
  EXPECT_EQ(c.nanoseconds(), 0u);
}

TEST(VirtualClock, IgnoresNegativeAdvances) {
  VirtualClock c;
  c.advance_seconds(-1.0);
  EXPECT_EQ(c.nanoseconds(), 0u);
}

}  // namespace
}  // namespace metadock::gpusim
