// The docking scoring kernel on a virtual device: a pure cost model.
//
// Mapping follows the paper exactly: "we identify each candidate solution to
// a CUDA warp, and warps are grouped into blocks depending on the CUDA
// thread block granularity".  One warp scores one conformation; its 32 lanes
// stride across receptor atoms; receptor tiles travel through shared memory
// so each block streams the receptor from DRAM once, regardless of how many
// warps it holds (the paper's "tilling implementation via shared memory").
// The kernel prices that work on the device's virtual clock from the
// receptor and ligand atom counts alone; the numbers themselves come from
// one host pass per batch in the scheduler.
#pragma once

#include "gpusim/device.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"

namespace metadock::gpusim {

struct ScoringKernelOptions {
  /// Conformations (warps) per thread block.
  int warps_per_block = 4;
  /// Shared-memory tiling on/off (off models the naive kernel where every
  /// warp streams the receptor from DRAM — the ablation baseline).
  bool tiled = true;
  /// Kernel of the host pass that scores each batch the virtual kernels
  /// price.  kAuto lets cpuid pick (AVX2+FMA when the CPU has it, else the
  /// portable kernel); kBatched pins the portable kernel.
  scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto;
  /// Kernel behind kBatchedSimd (and kAuto on an AVX2 host): the level
  /// cpuid reports by default.  Ignored by kBatched.
  scoring::SimdLevel simd_level = scoring::default_simd_level();
};

class DeviceScoringKernel {
 public:
  /// Binds the kernel for a receptor-ligand pair of `atoms` to a device:
  /// reserves device memory for the molecule payloads (throws
  /// std::runtime_error when the card's DRAM is exhausted) and accounts the
  /// initial host->device upload.  The destructor releases the reservation.
  DeviceScoringKernel(Device& device, scoring::AtomCounts atoms, ScoringKernelOptions options = {});
  /// The kernel for the atom counts of `scorer`.
  DeviceScoringKernel(Device& device, const scoring::LennardJonesScorer& scorer,
                      ScoringKernelOptions options = {})
      : DeviceScoringKernel(device, scorer.atom_counts(), options) {}
  ~DeviceScoringKernel();

  DeviceScoringKernel(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel& operator=(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel(DeviceScoringKernel&&) = delete;
  DeviceScoringKernel& operator=(DeviceScoringKernel&&) = delete;

  /// Advances the clock by one synchronous round for `n` poses (H2D pose
  /// upload, kernel, D2H score download).  Used by the warm-up probe and to
  /// replay a recorded workload trace at full paper scale.
  void score_cost_only(std::size_t n);

  /// Issues the kernel for `n` poses on `stream` (async: the caller owns the
  /// transfers and the Device::sync() at its barrier).  `seconds` must be
  /// kernel_seconds(n): the scheduler prices each launch for its overlap
  /// guard, and the launch reuses that price.
  void launch(int stream, std::size_t n, double seconds);

  [[nodiscard]] KernelLaunch launch_config(std::size_t n_poses) const;
  [[nodiscard]] KernelCost cost(std::size_t n_poses) const;
  /// The cost model's price of the kernel over `n_poses` on this device,
  /// before any straggle factor.
  [[nodiscard]] double kernel_seconds(std::size_t n_poses) const;

  [[nodiscard]] Device& device() noexcept { return device_; }
  [[nodiscard]] const Device& device() const noexcept { return device_; }

  /// Modeled flops for one receptor-ligand atom pair (shared with cpusim).
  static constexpr double kFlopsPerPair = scoring::kModelFlopsPerPair;
  /// Bytes per receptor atom streamed by the kernel (x, y, z, charge as
  /// floats plus the type byte, padded).
  static constexpr double kBytesPerReceptorAtom = 17.0;
  /// Bytes per uploaded pose (position + quaternion as floats).
  static constexpr double kBytesPerPose = 28.0;
  /// Receptor atoms per shared-memory tile of the tiled kernel.
  static constexpr int kTileAtoms = 256;
  /// Fraction of the naive (untiled) kernel's per-pair receptor touches
  /// that miss the cache hierarchy and cost DRAM bandwidth.
  static constexpr double kNaiveMissRate = 0.25;

 private:
  Device& device_;
  scoring::AtomCounts atoms_;
  ScoringKernelOptions options_;
};

}  // namespace metadock::gpusim
