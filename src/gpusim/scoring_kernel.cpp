#include "gpusim/scoring_kernel.h"

#include <algorithm>
#include <stdexcept>

#include "obs/host_metrics.h"
// metadock-lint: allow(wall-clock) host-throughput metrics only, never results
#include "util/timer.h"

namespace metadock::gpusim {

DeviceScoringKernel::DeviceScoringKernel(Device& device,
                                         const scoring::LennardJonesScorer& scorer,
                                         ScoringKernelOptions options)
    : device_(device),
      scorer_(scorer),
      options_(options),
      batch_(scorer, {.pose_block = options.warps_per_block,
                      .simd = scoring::kernel_simd_level(options.impl, options.simd_level)}) {
  if (options_.warps_per_block <= 0 || options_.tile_atoms <= 0) {
    throw std::invalid_argument("DeviceScoringKernel: bad options");
  }
  // Initial molecule allocation + upload: receptor and ligand
  // coordinate/type payloads live on the device for the kernel's lifetime.
  const double molecule_bytes =
      kBytesPerReceptorAtom *
      (static_cast<double>(scorer_.receptor_size()) + static_cast<double>(scorer_.ligand_size()));
  device_.allocate(molecule_bytes);
  device_.copy_to_device(molecule_bytes);
}

DeviceScoringKernel::~DeviceScoringKernel() {
  device_.deallocate(kBytesPerReceptorAtom * (static_cast<double>(scorer_.receptor_size()) +
                                              static_cast<double>(scorer_.ligand_size())));
}

KernelLaunch DeviceScoringKernel::launch_config(std::size_t n_poses) const {
  KernelLaunch launch;
  const auto wpb = static_cast<std::size_t>(options_.warps_per_block);
  launch.grid_blocks = static_cast<std::int64_t>((n_poses + wpb - 1) / wpb);
  launch.block_threads = options_.warps_per_block * 32;
  if (options_.tiled) {
    // Receptor tile + transformed-ligand buffer live in shared memory.
    launch.shared_bytes_per_block = static_cast<std::size_t>(
        kBytesPerReceptorAtom * options_.tile_atoms +
        kBytesPerReceptorAtom * static_cast<double>(scorer_.ligand_size()) *
            options_.warps_per_block);
  }
  return launch;
}

KernelCost DeviceScoringKernel::cost(std::size_t n_poses) const {
  KernelCost cost;
  const auto pairs = static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(n_poses);
  cost.flops = pairs * kFlopsPerPair;

  const double receptor_bytes =
      kBytesPerReceptorAtom * static_cast<double>(scorer_.receptor_size());
  const KernelLaunch launch = launch_config(n_poses);
  if (options_.tiled) {
    // Each block streams the receptor once through its shared-memory tiles;
    // the tile is then reused by every warp and every ligand atom.
    cost.global_bytes = receptor_bytes * static_cast<double>(launch.grid_blocks);
  } else {
    // Naive kernel: the inner loop re-touches receptor data once per pair
    // (each ligand atom of each warp re-streams the receptor).  The L2
    // absorbs most touches for receptors of this size; kNaiveMissRate is
    // the fraction that reaches DRAM-equivalent bandwidth.
    cost.global_bytes =
        pairs * kBytesPerReceptorAtom * kNaiveMissRate;
  }
  cost.global_bytes += kBytesPerPose * static_cast<double>(n_poses)  // poses in
                       + 8.0 * static_cast<double>(n_poses);         // scores out
  return cost;
}

void DeviceScoringKernel::score_cost_only(std::size_t n) {
  if (n == 0) return;
  device_.copy_to_device(kBytesPerPose * static_cast<double>(n));
  device_.launch(launch_config(n), cost(n));
  device_.copy_from_device(8.0 * static_cast<double>(n));
}

void DeviceScoringKernel::launch(int stream, std::size_t n,
                                 std::span<const scoring::Pose> poses, std::span<double> out) {
  if (poses.size() != out.size() || (!poses.empty() && poses.size() != n)) {
    throw std::invalid_argument("DeviceScoringKernel: poses/scores size mismatch");
  }
  if (n == 0) return;
  if (poses.empty()) {
    device_.launch_async(stream, launch_config(n), cost(n));
    return;
  }
  const auto wpb = static_cast<std::size_t>(options_.warps_per_block);
  // Times the real host work behind host.pairs_per_second; virtual time is
  // advanced by the device launch and never reads this timer.
  // metadock-lint: allow(wall-clock) host-throughput metrics only
  const util::WallTimer timer;
  device_.launch_async(stream, launch_config(n), cost(n), [&](std::int64_t block) {
    // One block of warps = one pose block: the engine transforms the
    // block's poses once and streams each receptor tile through all of
    // them, like the shared-memory tile shared by the block's warps.
    const std::size_t lo = static_cast<std::size_t>(block) * wpb;
    const std::size_t m = std::min(wpb, n - lo);
    batch_.score_batch(poses.subspan(lo, m), out.subspan(lo, m));
  });
  obs::record_host_scoring(
      device_.observer(), timer.seconds(),
      static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(n));
}

}  // namespace metadock::gpusim
