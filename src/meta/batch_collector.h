// The staging buffer of MetaheuristicEngine::run's evaluation batches.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "meta/engine.h"
#include "meta/evaluator.h"
#include "obs/observer.h"
#include "scoring/pose.h"

namespace metadock::meta {

/// Stages one evaluation batch in fixed slots, evaluates it in one call and
/// scatters the scores back via the supplied pointers.  The engine's
/// per-spot phases fill slot spot × width + i from whichever thread runs
/// the spot, so a batch holds the same poses in the same order however
/// the spots were scheduled.  The buffers are sized at construction; a
/// slot or batch past that capacity throws instead of growing, so
/// set()/flush() allocate nothing.
class BatchCollector {
 public:
  BatchCollector(Evaluator& eval, RunResult& result, obs::Observer* obs, std::size_t capacity)
      : eval_(eval), result_(result), obs_(obs), poses_(capacity), outs_(capacity),
        scores_(capacity) {}

  /// Stages `pose` in `slot`; its score goes to *score_out at flush().
  /// Safe to call concurrently for distinct slots.
  void set(std::size_t slot, const scoring::Pose& pose, double* score_out) {
    check_capacity(slot + 1);
    poses_[slot] = pose;
    outs_[slot] = score_out;
  }

  /// Evaluates slots [0, n) as one batch.
  void flush(std::size_t n) {
    check_capacity(n);
    if (n == 0) return;
    eval_.evaluate(std::span<const scoring::Pose>(poses_).first(n),
                   std::span<double>(scores_).first(n));
    for (std::size_t i = 0; i < n; ++i) *outs_[i] = scores_[i];
    result_.evaluations += n;
    result_.batch_sizes.push_back(n);
    if (obs_ != nullptr) {
      obs_->metrics.histogram("meta.batch_size").record(static_cast<double>(n));
      obs_->metrics.counter("meta.evaluations").add(static_cast<double>(n));
    }
  }

 private:
  void check_capacity(std::size_t n) const {
    if (n > poses_.size()) throw std::length_error("BatchCollector: batch capacity exceeded");
  }

  Evaluator& eval_;
  RunResult& result_;
  obs::Observer* obs_;
  std::vector<scoring::Pose> poses_;
  std::vector<double*> outs_;
  std::vector<double> scores_;
};

}  // namespace metadock::meta
