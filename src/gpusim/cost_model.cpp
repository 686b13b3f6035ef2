#include "gpusim/cost_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace metadock::gpusim {
namespace {

/// Resident warps per SM needed to fully hide pipeline/memory latency.
constexpr double kWarpsToHideLatency = 16.0;
/// Floor of the occupancy factor (a single warp still makes progress).
constexpr double kMinOccupancyFactor = 0.12;

}  // namespace

double kernel_time_s(const DeviceSpec& dev, const KernelLaunch& launch, const KernelCost& cost) {
  if (launch.grid_blocks <= 0 || launch.block_threads <= 0) {
    throw std::invalid_argument("kernel_time_s: empty launch");
  }
  const int resident =
      dev.resident_blocks_per_sm(launch.block_threads, launch.shared_bytes_per_block);
  if (resident == 0) {
    throw std::invalid_argument("kernel_time_s: block does not fit on device " + dev.name);
  }

  // (1) SM-granular work quantization.  Hardware dispatches blocks to SMs
  // dynamically as they drain, so the busiest SM ends roughly half a block
  // after the mean — the expected makespan is (blocks + (SMs-1)/2) / SMs
  // block-times per SM, i.e. an effective block count of:
  const auto blocks = static_cast<double>(launch.grid_blocks);
  const double quantized_blocks = blocks + (dev.sm_count - 1) * 0.5;

  // (2) Occupancy-driven latency hiding: fraction of peak issue rate the
  // launch can sustain given its resident warps per SM.
  const double warps_per_block = static_cast<double>(launch.block_threads) / 32.0;
  const double resident_warps =
      std::min<double>(resident, std::ceil(blocks / dev.sm_count)) * warps_per_block;
  const double occupancy =
      std::clamp(resident_warps / kWarpsToHideLatency, kMinOccupancyFactor, 1.0);

  const double flops_per_block = cost.flops / blocks;
  const double sustained_flops =
      dev.peak_gflops() * 1e9 * dev.compute_efficiency * occupancy;
  const double compute_s = quantized_blocks * flops_per_block / sustained_flops;

  const double sustained_bw = dev.dram_bw_gbs * 1e9 * dev.memory_efficiency;
  const double bytes_per_block = cost.global_bytes / blocks;
  const double memory_s = quantized_blocks * bytes_per_block / sustained_bw;

  // (3) Roofline: compute and memory overlap; launch overhead does not.
  return std::max(compute_s, memory_s) + kLaunchOverheadS;
}

double transfer_time_s(const DeviceSpec& dev, double bytes) {
  if (bytes < 0.0) throw std::invalid_argument("transfer_time_s: negative byte count");
  return bytes / (dev.pcie_bw_gbs * 1e9) + kTransferLatencyS;
}

}  // namespace metadock::gpusim
