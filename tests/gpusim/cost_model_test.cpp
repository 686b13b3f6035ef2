#include "gpusim/cost_model.h"

#include <gtest/gtest.h>

#include "gpusim/device_db.h"

namespace metadock::gpusim {
namespace {

KernelLaunch launch_of(std::int64_t blocks, int threads = 128, std::size_t shared = 0) {
  KernelLaunch l;
  l.grid_blocks = blocks;
  l.block_threads = threads;
  l.shared_bytes_per_block = shared;
  return l;
}

KernelCost cost_of(double flops, double bytes = 0.0) {
  KernelCost c;
  c.flops = flops;
  c.global_bytes = bytes;
  return c;
}

TEST(CostModel, TimeGrowsWithFlops) {
  const DeviceSpec d = geforce_gtx580();
  const double t1 = kernel_time_s(d, launch_of(1024), cost_of(1e9));
  const double t2 = kernel_time_s(d, launch_of(1024), cost_of(2e9));
  EXPECT_GT(t2, t1);
  EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(CostModel, LargeComputeBoundLaunchApproachesSustainedRate) {
  const DeviceSpec d = geforce_gtx580();
  const double flops = 1e12;
  const double t = kernel_time_s(d, launch_of(100000), cost_of(flops));
  const double implied = flops / t / 1e9;  // GFLOPS
  EXPECT_NEAR(implied, d.sustained_gflops(), d.sustained_gflops() * 0.02);
}

TEST(CostModel, MemoryBoundLaunchFollowsBandwidth) {
  const DeviceSpec d = geforce_gtx580();
  const double bytes = 1e10;
  const double t = kernel_time_s(d, launch_of(100000), cost_of(1.0, bytes));
  const double implied = bytes / t / 1e9;
  EXPECT_NEAR(implied, d.dram_bw_gbs * d.memory_efficiency, d.dram_bw_gbs * 0.02);
}

TEST(CostModel, RooflineTakesTheMax) {
  const DeviceSpec d = geforce_gtx580();
  const double t_c = kernel_time_s(d, launch_of(100000), cost_of(1e12, 1.0));
  const double t_m = kernel_time_s(d, launch_of(100000), cost_of(1.0, 1e10));
  const double t_both = kernel_time_s(d, launch_of(100000), cost_of(1e12, 1e10));
  EXPECT_NEAR(t_both, std::max(t_c, t_m), std::max(t_c, t_m) * 0.01);
}

TEST(CostModel, LaunchOverheadFloorsTinyKernels) {
  const DeviceSpec d = geforce_gtx580();
  const double t = kernel_time_s(d, launch_of(1), cost_of(1.0));
  EXPECT_GE(t, kLaunchOverheadS);
}

TEST(CostModel, LowOccupancySlowsSmallLaunches) {
  const DeviceSpec d = geforce_gtx580();
  // Same total flops, 16 blocks (one per SM, 4 warps each = low occupancy)
  // vs plenty of blocks.
  const double flops = 1e9;
  const double t_small = kernel_time_s(d, launch_of(16), cost_of(flops));
  const double t_large = kernel_time_s(d, launch_of(16000), cost_of(flops * 1000.0)) / 1000.0;
  EXPECT_GT(t_small, 1.5 * t_large);
}

TEST(CostModel, SmTailMakesThroughputSublinearInBlocks) {
  const DeviceSpec d = geforce_gtx580();  // 16 SMs
  // Same per-block cost at saturated occupancy: the (SMs-1)/2 tail means
  // n+1 blocks cost strictly more than n, but per-block time decreases
  // toward the asymptote as the tail amortizes.
  const double per_block = 1e8;
  const double t_n = kernel_time_s(d, launch_of(1600), cost_of(1600 * per_block));
  const double t_n1 = kernel_time_s(d, launch_of(1601), cost_of(1601 * per_block));
  EXPECT_GT(t_n1, t_n);
  const double t_small = kernel_time_s(d, launch_of(160), cost_of(160 * per_block));
  EXPECT_GT(t_small / 160.0, t_n / 1600.0);  // small launches pay more per block
}

TEST(CostModel, FasterDeviceIsFaster) {
  const DeviceSpec fast = tesla_k40c();
  const DeviceSpec slow = geforce_gtx580();
  const KernelLaunch l = launch_of(4096);
  const KernelCost c = cost_of(1e11);
  EXPECT_LT(kernel_time_s(fast, l, c), kernel_time_s(slow, l, c));
}

TEST(CostModel, EmptyLaunchThrows) {
  const DeviceSpec d = geforce_gtx580();
  EXPECT_THROW((void)kernel_time_s(d, launch_of(0), cost_of(1.0)), std::invalid_argument);
  EXPECT_THROW((void)kernel_time_s(d, launch_of(16, 0), cost_of(1.0)), std::invalid_argument);
}

TEST(CostModel, OversizedBlockThrows) {
  const DeviceSpec d = geforce_gtx580();
  EXPECT_THROW((void)kernel_time_s(d, launch_of(16, 2048), cost_of(1.0)),
               std::invalid_argument);
  EXPECT_THROW((void)kernel_time_s(d, launch_of(16, 128, 80 * 1024), cost_of(1.0)),
               std::invalid_argument);
}

TEST(CostModel, TransferTimeIsLatencyPlusBandwidth) {
  const DeviceSpec d = geforce_gtx580();
  const double t0 = transfer_time_s(d, 0.0);
  EXPECT_DOUBLE_EQ(t0, kTransferLatencyS);
  const double bytes = 6e9;  // exactly one second at 6 GB/s
  EXPECT_NEAR(transfer_time_s(d, bytes), 1.0 + kTransferLatencyS, 1e-9);
}

TEST(CostModel, NegativeTransferThrows) {
  EXPECT_THROW((void)transfer_time_s(geforce_gtx580(), -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace metadock::gpusim
