#include "cpusim/cpu_engine.h"

#include <stdexcept>

#include "obs/host_metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace metadock::cpusim {

CpuScoringEngine::CpuScoringEngine(CpuSpec spec, const scoring::LennardJonesScorer& scorer,
                                   scoring::ScoringImpl impl, scoring::SimdLevel simd_level)
    : spec_(std::move(spec)),
      scorer_(scorer),
      batch_(scorer, {.simd = scoring::kernel_simd_level(impl, simd_level)}) {}

void CpuScoringEngine::score(std::span<const scoring::Pose> poses, std::span<double> out) {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("CpuScoringEngine::score: size mismatch");
  }
  if (poses.empty()) return;
  const util::WallTimer timer;
  // Parallelize across pose blocks, not poses: each task keeps a block of
  // transformed poses hot while it streams the receptor tiles once.
  const auto block = static_cast<std::size_t>(batch_.pose_block());
  const std::size_t n_blocks = (poses.size() + block - 1) / block;
  util::ThreadPool::global().parallel_for(n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t n = std::min(block, poses.size() - lo);
    batch_.score_batch(poses.subspan(lo, n), out.subspan(lo, n));
  });
  obs::record_host_scoring(
      observer_, timer.seconds(),
      static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(poses.size()));
  score_cost_only(poses.size());
}

void CpuScoringEngine::score_cost_only(std::size_t n) {
  const double pairs =
      static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(n);
  clock_.advance_seconds(scoring_time_s(spec_, pairs, receptor_bytes()));
}

}  // namespace metadock::cpusim
