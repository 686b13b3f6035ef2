// The host side of the simulation: the one pass that really scores every
// batch, and the CPU model that prices scoring on the paper's Xeons (the
// OpenMP baseline of Tables 6-9).
#pragma once

#include <optional>
#include <span>

#include "cpusim/cpu_spec.h"
#include "gpusim/virtual_clock.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::cpusim {

/// The one host pass behind every simulated scorer.  The multi-GPU
/// scheduler and the CPU-model evaluator score each batch exactly once
/// with it, while the device and CPU models only advance virtual clocks.
/// A pose's energy depends only on the pose, so the device whose clock a
/// pose was charged to never changes its score.
class HostScorer {
 public:
  /// One task scores `pose_block` poses (a simulated block of warps) with
  /// the `simd` kernel (see scoring::kernel_simd_level).  The scorer must
  /// outlive the pass.
  HostScorer(const scoring::LennardJonesScorer& scorer, int pose_block, scoring::SimdLevel simd);

  /// Scores every pose into `out` (same indexing) in pose blocks spread
  /// over util::ThreadPool::global(), one fork-join per call in which the
  /// calling thread scores too.  The first call builds the receptor
  /// layout, so a cost-only replay never builds one; no call allocates
  /// after that.  Records the host.* metrics (obs/host_metrics.h) into
  /// `observer` (nullable).
  void score(std::span<const scoring::Pose> poses, std::span<double> out,
             obs::Observer* observer);

 private:
  const scoring::LennardJonesScorer& scorer_;
  scoring::BatchEngineOptions options_;
  std::optional<scoring::BatchScoringEngine> batch_;
};

/// The CPU model: the virtual time and energy the node's multicore spends
/// scoring a receptor-ligand pair of the given atom counts.  It does no
/// numeric work; HostScorer does.
class CpuScoringEngine {
 public:
  CpuScoringEngine(CpuSpec spec, scoring::AtomCounts atoms);

  /// Advances the clock by the model's time to score `n` poses.
  void score_cost_only(std::size_t n);

  [[nodiscard]] const CpuSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] double busy_seconds() const noexcept { return clock_.seconds(); }
  [[nodiscard]] double energy_joules() const noexcept {
    return spec_.tdp_watts * busy_seconds();
  }
  void reset() noexcept { clock_.reset(); }

 private:
  [[nodiscard]] std::size_t receptor_bytes() const noexcept {
    // Mirror of the GPU model's per-atom payload.
    return static_cast<std::size_t>(17.0 * static_cast<double>(atoms_.receptor));
  }

  CpuSpec spec_;
  scoring::AtomCounts atoms_;
  gpusim::VirtualClock clock_;
};

}  // namespace metadock::cpusim
