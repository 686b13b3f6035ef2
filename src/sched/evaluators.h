// meta::Evaluator adapter binding the metaheuristic engine to the
// simulated CPU (the multi-GPU one is sched::MultiGpuBatchScorer).
#pragma once

#include "cpusim/cpu_engine.h"
#include "meta/evaluator.h"

namespace metadock::sched {

/// Scores each batch once with the host pass while the CPU model
/// accumulates virtual time (the OpenMP baseline).
class CpuModelEvaluator final : public meta::Evaluator {
 public:
  CpuModelEvaluator(cpusim::CpuSpec spec, const scoring::LennardJonesScorer& scorer,
                    scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto,
                    obs::Observer* observer = nullptr,
                    scoring::SimdLevel simd_level = scoring::default_simd_level())
      : engine_(std::move(spec), scorer),
        host_(scorer, kPoseBlock, scoring::kernel_simd_level(impl, simd_level)),
        observer_(observer) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    host_.score(poses, out, observer_);
    engine_.score_cost_only(poses.size());
  }

  [[nodiscard]] double virtual_seconds() const override { return engine_.busy_seconds(); }

  [[nodiscard]] cpusim::CpuScoringEngine& engine() noexcept { return engine_; }

 private:
  /// Poses per host task: the batched engine's default block.
  static constexpr int kPoseBlock = 16;

  cpusim::CpuScoringEngine engine_;
  cpusim::HostScorer host_;
  obs::Observer* observer_;
};

}  // namespace metadock::sched
