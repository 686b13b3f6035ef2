// meta::Evaluator adapter binding the metaheuristic engine to the
// simulated CPU (the multi-GPU one is sched::MultiGpuBatchScorer).
#pragma once

#include <optional>
#include <stdexcept>

#include "cpusim/cpu_engine.h"
#include "meta/evaluator.h"

namespace metadock::sched {

/// Scores each batch once with the host pass while the CPU model
/// accumulates virtual time (the OpenMP baseline).
class CpuModelEvaluator final : public meta::Evaluator {
 public:
  /// Scores with `scorer`, which must outlive the evaluator.
  CpuModelEvaluator(cpusim::CpuSpec spec, const scoring::LennardJonesScorer& scorer,
                    scoring::ScoringImpl impl = scoring::ScoringImpl::kAuto,
                    obs::Observer* observer = nullptr,
                    scoring::SimdLevel simd_level = scoring::default_simd_level())
      : engine_(std::move(spec), scorer.atom_counts()),
        host_(std::in_place, scorer, kPoseBlock, scoring::kernel_simd_level(impl, simd_level)),
        observer_(observer) {}

  /// Cost-only: the CPU model of a pair of `atoms` with no host pass, for
  /// trace replay through engine(); evaluate() throws std::logic_error.
  CpuModelEvaluator(cpusim::CpuSpec spec, scoring::AtomCounts atoms)
      : engine_(std::move(spec), atoms), observer_(nullptr) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    if (!host_) throw std::logic_error("CpuModelEvaluator: cost-only, it scores nothing");
    host_->score(poses, out, observer_);
    engine_.score_cost_only(poses.size());
  }

  [[nodiscard]] double virtual_seconds() const override { return engine_.busy_seconds(); }

  [[nodiscard]] cpusim::CpuScoringEngine& engine() noexcept { return engine_; }

 private:
  /// Poses per host task: the batched engine's default block.
  static constexpr int kPoseBlock = 16;

  cpusim::CpuScoringEngine engine_;
  std::optional<cpusim::HostScorer> host_;
  obs::Observer* observer_;
};

}  // namespace metadock::sched
