#include "cpusim/cpu_engine.h"

#include <algorithm>
#include <stdexcept>

#include "obs/host_metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace metadock::cpusim {

HostScorer::HostScorer(const scoring::LennardJonesScorer& scorer, int pose_block,
                       scoring::SimdLevel simd)
    : scorer_(scorer), options_{.pose_block = pose_block, .simd = simd} {}

void HostScorer::score(std::span<const scoring::Pose> poses, std::span<double> out,
                       obs::Observer* observer) {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("HostScorer::score: size mismatch");
  }
  if (poses.empty()) return;
  if (!batch_) batch_.emplace(scorer_, options_);
  const util::WallTimer timer;
  // Parallelize across pose blocks, not poses: each participant, the
  // calling thread included, keeps a block of transformed poses hot (on
  // its own stack) while it streams the receptor tiles once.
  const auto block = static_cast<std::size_t>(options_.pose_block);
  const std::size_t n_blocks = (poses.size() + block - 1) / block;
  util::ThreadPool::global().parallel_for(n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t n = std::min(block, poses.size() - lo);
    batch_->score_batch(poses.subspan(lo, n), out.subspan(lo, n));
  });
  obs::record_host_scoring(
      observer, timer.seconds(),
      static_cast<double>(scorer_.pairs_per_eval()) * static_cast<double>(poses.size()));
}

CpuScoringEngine::CpuScoringEngine(CpuSpec spec, scoring::AtomCounts atoms)
    : spec_(std::move(spec)), atoms_(atoms) {}

void CpuScoringEngine::score_cost_only(std::size_t n) {
  const double pairs = static_cast<double>(atoms_.pairs_per_eval()) * static_cast<double>(n);
  clock_.advance_seconds(scoring_time_s(spec_, pairs, receptor_bytes()));
}

}  // namespace metadock::cpusim
