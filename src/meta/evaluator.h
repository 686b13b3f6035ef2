// Scoring back-end interface for the metaheuristic engine.
//
// The engine gathers every conformation that needs scoring in a phase into
// one batch — the set the paper ships to the GPUs as "CUDA thread blocks"
// (one warp per conformation).  Implementations are: batched host scoring
// (tests/examples/benches), the CPU-model engine (OpenMP column), and the
// multi-GPU executors in `sched`.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "scoring/batch_engine.h"
#include "scoring/lennard_jones.h"
#include "scoring/pose.h"
#include "scoring/pose_block.h"

namespace metadock::meta {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  /// Scores every pose into out (same indexing).  Must be deterministic in
  /// the poses — results may not depend on batch splitting.
  virtual void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) = 0;

  /// Columnar entry point for callers that hold poses by column.  The
  /// engine does not call it: it stages Poses and calls evaluate().  The
  /// adapter gathers the columns into grow-only per-thread scratch and
  /// forwards to evaluate(); an override MUST score identically to
  /// evaluate() on the same poses.
  virtual void evaluate_soa(const scoring::PoseSoAView& poses, std::span<double> out) {
    thread_local std::vector<scoring::Pose> gathered;
    if (gathered.size() < poses.size()) gathered.resize(poses.size());
    for (std::size_t i = 0; i < poses.size(); ++i) gathered[i] = poses.get(i);
    evaluate(std::span<const scoring::Pose>(gathered).first(poses.size()), out);
  }

  /// Virtual seconds consumed by this evaluator's backing resources so far
  /// (the barrier-aware node time for multi-device evaluators).  Gives the
  /// observability layer a timeline for engine-level spans; evaluators
  /// without a clock (host scoring in tests) report 0.
  [[nodiscard]] virtual double virtual_seconds() const { return 0.0; }
};

/// Adapts any batch-scoring callable (e.g. scoring::GridScorer) to the
/// Evaluator interface: Fn(std::span<const Pose>, std::span<double>).
template <typename Fn>
class CallableEvaluator final : public Evaluator {
 public:
  explicit CallableEvaluator(Fn fn) : fn_(std::move(fn)) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    fn_(poses, out);
    evals_ += poses.size();
  }

  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }

 private:
  Fn fn_;
  std::uint64_t evals_ = 0;
};

/// Scores on the calling thread with the batched engine (pose-blocked,
/// type-partitioned; SIMD when available) — the fast host path for tests,
/// examples and tools that do not need a simulated device behind them.
class BatchedEvaluator final : public Evaluator {
 public:
  explicit BatchedEvaluator(const scoring::LennardJonesScorer& scorer,
                            scoring::BatchEngineOptions options = {})
      : engine_(scorer, options) {}

  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override {
    engine_.score_batch(poses, out);
    calls_ += 1;
    evals_ += poses.size();
  }

  [[nodiscard]] const scoring::BatchScoringEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] std::uint64_t evaluations() const noexcept { return evals_; }

 private:
  scoring::BatchScoringEngine engine_;
  std::uint64_t calls_ = 0;
  std::uint64_t evals_ = 0;
};

}  // namespace metadock::meta
