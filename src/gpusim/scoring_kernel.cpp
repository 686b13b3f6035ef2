#include "gpusim/scoring_kernel.h"

#include <stdexcept>

#include "gpusim/cost_model.h"

namespace metadock::gpusim {

DeviceScoringKernel::DeviceScoringKernel(Device& device, scoring::AtomCounts atoms,
                                         ScoringKernelOptions options)
    : device_(device), atoms_(atoms), options_(options) {
  if (options_.warps_per_block <= 0) {
    throw std::invalid_argument("DeviceScoringKernel: bad options");
  }
  // Initial molecule allocation + upload: receptor and ligand
  // coordinate/type payloads live on the device for the kernel's lifetime.
  const double molecule_bytes =
      kBytesPerReceptorAtom *
      (static_cast<double>(atoms_.receptor) + static_cast<double>(atoms_.ligand));
  device_.allocate(molecule_bytes);
  device_.copy_to_device(molecule_bytes);
}

DeviceScoringKernel::~DeviceScoringKernel() {
  device_.deallocate(kBytesPerReceptorAtom *
                     (static_cast<double>(atoms_.receptor) + static_cast<double>(atoms_.ligand)));
}

KernelLaunch DeviceScoringKernel::launch_config(std::size_t n_poses) const {
  KernelLaunch launch;
  const auto wpb = static_cast<std::size_t>(options_.warps_per_block);
  launch.grid_blocks = static_cast<std::int64_t>((n_poses + wpb - 1) / wpb);
  launch.block_threads = options_.warps_per_block * 32;
  if (options_.tiled) {
    // Receptor tile + transformed-ligand buffer live in shared memory.
    launch.shared_bytes_per_block = static_cast<std::size_t>(
        kBytesPerReceptorAtom * kTileAtoms +
        kBytesPerReceptorAtom * static_cast<double>(atoms_.ligand) *
            options_.warps_per_block);
  }
  return launch;
}

KernelCost DeviceScoringKernel::cost(std::size_t n_poses) const {
  KernelCost cost;
  const auto pairs = static_cast<double>(atoms_.pairs_per_eval()) * static_cast<double>(n_poses);
  cost.flops = pairs * kFlopsPerPair;

  const double receptor_bytes =
      kBytesPerReceptorAtom * static_cast<double>(atoms_.receptor);
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

double DeviceScoringKernel::kernel_seconds(std::size_t n_poses) const {
  return kernel_time_s(device_.spec(), launch_config(n_poses), cost(n_poses));
}

void DeviceScoringKernel::launch(int stream, std::size_t n, double seconds) {
  if (n == 0) return;
  device_.launch_async(stream, launch_config(n), cost(n), seconds);
}

}  // namespace metadock::gpusim
