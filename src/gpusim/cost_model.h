// Analytic timing model for virtual kernel launches and transfers.
//
// The model is a roofline with three corrections that the paper's results
// hinge on:
//   1. SM-granular work quantization — a launch cannot finish faster than
//      the busiest SM (ceil(blocks / SMs) block rounds);
//   2. a latency-hiding occupancy factor — throughput degrades when a
//      launch supplies too few resident warps per SM (this is what makes
//      small Improve batches, e.g. metaheuristic M3's 20% local search,
//      less GPU-efficient than M4's giant batches, exactly as measured);
//   3. fixed per-launch overhead.
#pragma once

#include "gpusim/device_spec.h"
#include "gpusim/launch.h"

namespace metadock::gpusim {

/// Fixed kernel launch overhead (CUDA runtime + dispatch), seconds.
inline constexpr double kLaunchOverheadS = 8e-6;
/// Host<->device transfer latency per call, seconds.
inline constexpr double kTransferLatencyS = 15e-6;

/// Virtual seconds a launch takes on `dev`.  Pure function of its inputs.
[[nodiscard]] double kernel_time_s(const DeviceSpec& dev, const KernelLaunch& launch,
                                   const KernelCost& cost);

/// Virtual seconds to move `bytes` across PCIe (one direction).
[[nodiscard]] double transfer_time_s(const DeviceSpec& dev, double bytes);

}  // namespace metadock::gpusim
