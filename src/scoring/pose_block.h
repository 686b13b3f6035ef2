// Column view of a batch of poses.
//
// The library keeps poses whole (`Pose`, AoS) from the metaheuristic
// engine to the kernels: a kernel broadcasts one pose against the
// type-partitioned receptor columns, so there is nothing to vectorize
// across poses.  This non-owning view remains only as the argument of the
// Evaluator's columnar entry point, whose default adapter gathers it back
// into Poses.
#pragma once

#include <cstddef>

#include "scoring/pose.h"

namespace metadock::scoring {

/// Read-only columnar view over `n` poses.  Columns are parallel arrays;
/// the view does not own them and must not outlive the backing storage.
struct PoseSoAView {
  const float* px = nullptr;
  const float* py = nullptr;
  const float* pz = nullptr;
  const float* qw = nullptr;
  const float* qx = nullptr;
  const float* qy = nullptr;
  const float* qz = nullptr;
  std::size_t n = 0;

  [[nodiscard]] std::size_t size() const { return n; }
  [[nodiscard]] bool empty() const { return n == 0; }

  /// Reassembles pose `i`.
  [[nodiscard]] Pose get(std::size_t i) const {
    Pose p;
    p.position = {px[i], py[i], pz[i]};
    p.orientation = {qw[i], qx[i], qy[i], qz[i]};
    return p;
  }
};

}  // namespace metadock::scoring
