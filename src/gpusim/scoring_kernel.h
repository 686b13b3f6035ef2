// The docking scoring kernel on a virtual device.
//
// Mapping follows the paper exactly: "we identify each candidate solution to
// a CUDA warp, and warps are grouped into blocks depending on the CUDA
// thread block granularity".  One warp scores one conformation; its 32 lanes
// stride across receptor atoms; receptor tiles travel through shared memory
// so each block streams the receptor from DRAM once, regardless of how many
// warps it holds (the paper's "tilling implementation via shared memory").
#pragma once

#include <span>

#include "gpusim/device.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::gpusim {

struct ScoringKernelOptions {
  /// Conformations (warps) per thread block.
  int warps_per_block = 4;
  /// Shared-memory tiling on/off (off models the naive kernel where every
  /// warp streams the receptor from DRAM — the ablation baseline).
  bool tiled = true;
  /// Receptor atoms per shared-memory tile.
  int tile_atoms = 256;
  /// Kernel of the batched host engine doing the real numeric work behind
  /// the virtual kernel.  kAuto lets cpuid pick (AVX2+FMA when the CPU has
  /// it, else the portable kernel); kBatched pins the portable kernel.
  scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto;
  /// Kernel behind kBatchedSimd (and kAuto on an AVX2 host): the level
  /// cpuid reports by default.  Ignored by kBatched.
  scoring::SimdLevel simd_level = scoring::default_simd_level();
};

class DeviceScoringKernel {
 public:
  /// Binds a scorer (receptor + ligand already in SoA form) to a device:
  /// reserves device memory for the molecule payloads (throws
  /// std::runtime_error when the card's DRAM is exhausted) and accounts the
  /// initial host->device upload.  The destructor releases the reservation.
  DeviceScoringKernel(Device& device, const scoring::LennardJonesScorer& scorer,
                      ScoringKernelOptions options = {});
  ~DeviceScoringKernel();

  DeviceScoringKernel(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel& operator=(const DeviceScoringKernel&) = delete;
  DeviceScoringKernel(DeviceScoringKernel&&) = delete;
  DeviceScoringKernel& operator=(DeviceScoringKernel&&) = delete;

  /// Advances the clock by one synchronous round for `n` poses (H2D pose
  /// upload, kernel, D2H score download) without the numeric work.  Used by
  /// the warm-up probe and to replay a recorded workload trace at full
  /// paper scale.
  void score_cost_only(std::size_t n);

  /// Issues the kernel for `n` poses on `stream` (async: the caller owns the
  /// transfers and the Device::sync() at its barrier).  With `poses` and
  /// `out` (both of size n) every block scores its poses for real; empty
  /// spans replay the kernel's cost only.
  void launch(int stream, std::size_t n, std::span<const scoring::Pose> poses = {},
              std::span<double> out = {});

  [[nodiscard]] KernelLaunch launch_config(std::size_t n_poses) const;
  [[nodiscard]] KernelCost cost(std::size_t n_poses) const;

  [[nodiscard]] Device& device() noexcept { return device_; }
  [[nodiscard]] const Device& device() const noexcept { return device_; }

  /// Modeled flops for one receptor-ligand atom pair (shared with cpusim).
  static constexpr double kFlopsPerPair = scoring::kModelFlopsPerPair;
  /// Bytes per receptor atom streamed by the kernel (x, y, z, charge as
  /// floats plus the type byte, padded).
  static constexpr double kBytesPerReceptorAtom = 17.0;
  /// Bytes per uploaded pose (position + quaternion as floats).
  static constexpr double kBytesPerPose = 28.0;
  /// Fraction of the naive (untiled) kernel's per-pair receptor touches
  /// that miss the cache hierarchy and cost DRAM bandwidth.
  static constexpr double kNaiveMissRate = 0.25;

 private:
  Device& device_;
  const scoring::LennardJonesScorer& scorer_;
  ScoringKernelOptions options_;
  /// Batched host engine backing the virtual kernel.  One block of warps
  /// maps to one pose block: pose_block == warps_per_block, so the engine's
  /// receptor sweep mirrors the shared-memory tile being reused by every
  /// warp of the block.
  scoring::BatchScoringEngine batch_;
};

}  // namespace metadock::gpusim
