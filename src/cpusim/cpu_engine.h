// CPU scoring engine: really evaluates poses on the host (optionally across
// host threads) while accumulating virtual time from the CPU model — the
// OpenMP baseline of Tables 6-9.
#pragma once

#include <span>

#include "cpusim/cpu_spec.h"
#include "gpusim/virtual_clock.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::cpusim {

class CpuScoringEngine {
 public:
  /// `impl` and `simd_level` pick the batched engine's kernel exactly as
  /// gpusim::ScoringKernelOptions does (kAuto: cpuid picks), so CPU and
  /// device scoring agree bit for bit.
  CpuScoringEngine(CpuSpec spec, const scoring::LennardJonesScorer& scorer,
                   scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto,
                   scoring::SimdLevel simd_level = scoring::default_simd_level());

  /// Observability sink for real host throughput (nullable = off): the
  /// host.* scoring metrics defined in obs/host_metrics.h.
  void set_observer(obs::Observer* observer) noexcept { observer_ = observer; }

  /// Scores poses for real (parallel across host threads, one pose block
  /// per task) and advances the virtual clock by the model.
  void score(std::span<const scoring::Pose> poses, std::span<double> out);

  /// Advances the clock as score() would for `n` poses, without the numeric
  /// work (trace replay at paper scale).
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
    return static_cast<std::size_t>(17.0 * static_cast<double>(scorer_.receptor_size()));
  }

  CpuSpec spec_;
  const scoring::LennardJonesScorer& scorer_;
  scoring::BatchScoringEngine batch_;
  obs::Observer* observer_ = nullptr;
  gpusim::VirtualClock clock_;
};

}  // namespace metadock::cpusim
