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

  /// Scores `poses` for real and advances the device clock: H2D pose upload,
  /// kernel execution, D2H score download.
  void score(std::span<const scoring::Pose> poses, std::span<double> out);

  /// Advances the clock exactly as score() would for a batch of `n` poses,
  /// without doing the numeric work.  Used by the platform simulator to
  /// replay a recorded workload trace at full paper scale.
  void score_cost_only(std::size_t n);

  /// Kernel-only variants (no H2D/D2H accounting) for callers that manage
  /// transfers at batch level, as Algorithm 2 does: the host uploads the
  /// whole Scom to every GPU once per batch, then each GPU launches on its
  /// stride.
  void launch_scoring(std::span<const scoring::Pose> poses, std::span<double> out);
  void launch_cost_only(std::size_t n);

  /// Stream variants for the overlapped dispatch: the caller owns the
  /// pipeline (uploads poses, launches, downloads scores on streams it
  /// created) and calls Device::sync() at the batch barrier.
  void launch_scoring_async(int stream, std::span<const scoring::Pose> poses,
                            std::span<double> out);
  void launch_cost_only_async(int stream, std::size_t n);
  /// Async H2D of `n` poses' payload (kBytesPerPose each) on `stream`.
  void upload_poses_async(int stream, std::size_t n);
  /// Async D2H of `n` scores (8 bytes each) on `stream`.
  void download_scores_async(int stream, std::size_t n);

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

  /// Shared body of launch_scoring{,_async}: `launch(config, cost, body)`
  /// issues the virtual kernel, whose per-block body scores for real.
  template <typename Launch>
  void launch_scored(std::span<const scoring::Pose> poses, std::span<double> out,
                     Launch&& launch);
};

}  // namespace metadock::gpusim
