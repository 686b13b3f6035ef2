#include "scoring/batch_engine.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "mol/atom.h"
#include "scoring/pair_params.h"

namespace metadock::scoring {

bool simd_kernel_supported() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return simd_kernel_compiled() && __builtin_cpu_supports("avx2") &&
         __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

SimdLevel default_simd_level() noexcept {
  return simd_kernel_supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

std::string_view simd_level_name(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "?";
}

bool simd_level_supported(SimdLevel level) noexcept {
  return level == SimdLevel::kScalar || simd_kernel_supported();
}

ScoringImpl resolve_scoring_impl(ScoringImpl impl) noexcept {
  if (impl != ScoringImpl::kAuto) return impl;
  return simd_kernel_supported() ? ScoringImpl::kBatchedSimd : ScoringImpl::kBatched;
}

std::string_view scoring_impl_name(ScoringImpl impl) noexcept {
  switch (impl) {
    case ScoringImpl::kAuto:
      return "auto";
    case ScoringImpl::kBatched:
      return "batched-scalar";
    case ScoringImpl::kBatchedSimd:
      return "batched-simd";
  }
  return "?";
}

SimdLevel kernel_simd_level(ScoringImpl impl, SimdLevel simd) noexcept {
  return resolve_scoring_impl(impl) == ScoringImpl::kBatchedSimd ? simd : SimdLevel::kScalar;
}

PartitionedReceptor PartitionedReceptor::build(const ReceptorAtoms& receptor,
                                               std::size_t tile_size) {
  if (tile_size == 0) {
    throw std::invalid_argument("PartitionedReceptor: tile_size must be positive");
  }
  const std::size_t n = receptor.size();
  PartitionedReceptor out;
  out.tile_size = tile_size;
  out.x.resize(n);
  out.y.resize(n);
  out.z.resize(n);
  out.type.resize(n);
  out.perm.resize(n);

  constexpr auto kTypes = static_cast<std::size_t>(mol::kElementCount);
  for (std::size_t base = 0; base < n; base += tile_size) {
    const std::size_t tile_n = std::min(tile_size, n - base);
    out.tile_runs.push_back(static_cast<std::uint32_t>(out.runs.size()));

    // Counting sort by element, stable within each element, tile-local.
    std::array<std::uint32_t, kTypes> count{};
    for (std::size_t i = 0; i < tile_n; ++i) ++count[receptor.type[base + i]];
    std::array<std::uint32_t, kTypes> offset{};
    std::uint32_t acc = 0;
    for (std::size_t t = 0; t < kTypes; ++t) {
      offset[t] = acc;
      if (count[t] > 0) {
        out.runs.push_back({static_cast<std::uint32_t>(base) + acc, count[t],
                            static_cast<std::uint8_t>(t)});
      }
      acc += count[t];
    }
    for (std::size_t i = 0; i < tile_n; ++i) {
      const std::size_t src = base + i;
      const std::size_t dst = base + offset[receptor.type[src]]++;
      out.x[dst] = receptor.x[src];
      out.y[dst] = receptor.y[src];
      out.z[dst] = receptor.z[src];
      out.type[dst] = receptor.type[src];
      out.perm[dst] = static_cast<std::uint32_t>(src);
    }
  }
  out.tile_runs.push_back(static_cast<std::uint32_t>(out.runs.size()));
  return out;
}

namespace detail {

void score_block_tile_scalar(const BlockKernelArgs& a) {
  const PairTable& table = PairTable::instance();
  for (std::size_t p = 0; p < a.n_poses; ++p) {
    const float* lx = a.lx + p * a.lig_n;
    const float* ly = a.ly + p * a.lig_n;
    const float* lz = a.lz + p * a.lig_n;
    double energy = 0.0;
    for (std::size_t j = 0; j < a.lig_n; ++j) {
      const float px = lx[j], py = ly[j], pz = lz[j];
      const PairCoeff* row = table.row(static_cast<mol::Element>(a.ltype[j]));
      double e = 0.0;
      for (std::size_t r = 0; r < a.n_runs; ++r) {
        const TypeRun& run = a.runs[r];
        // The whole point of the partition: (A, B) are loop constants for
        // the run, so the inner loop is gather-free FMA work.
        const float ca = row[run.type].a;
        const float cb = row[run.type].b;
        const std::size_t end = run.begin + run.count;
        for (std::size_t i = run.begin; i < end; ++i) {
          const float dx = a.rx[i] - px;
          const float dy = a.ry[i] - py;
          const float dz = a.rz[i] - pz;
          const float r2 = std::max(dx * dx + dy * dy + dz * dz, kMinR2);
          const float inv2 = 1.0f / r2;
          const float inv6 = inv2 * inv2 * inv2;
          const float pair = (ca * inv6 - cb) * inv6;
          e += pair;
        }
      }
      energy += e;
    }
    a.energy[p] += energy;
  }
}

}  // namespace detail

BatchScoringEngine::BatchScoringEngine(const LennardJonesScorer& scorer,
                                       BatchEngineOptions options)
    : ligand_(&scorer.ligand()), options_(options) {
  if (options_.pose_block <= 0) {
    throw std::invalid_argument("BatchScoringEngine: pose_block must be positive");
  }
  if (options_.tile_size <= 0) {
    throw std::invalid_argument("BatchScoringEngine: tile_size must be positive");
  }
  if (!simd_level_supported(options_.simd)) {
    throw std::invalid_argument(
        std::string("BatchScoringEngine: ") + std::string(simd_level_name(options_.simd)) +
        " kernel requested but unavailable on this host (build with METADOCK_SIMD=ON on x86-64 "
        "and run on a CPU with that ISA; use default_simd_level() to auto-detect)");
  }
  receptor_ = PartitionedReceptor::build(scorer.receptor(),
                                         static_cast<std::size_t>(options_.tile_size));
}

void BatchScoringEngine::score_block(const Pose* poses, std::size_t n, double* out,
                                     float* scratch) const {
  const std::size_t lig_n = ligand_->size();
  float* lx = scratch;
  float* ly = lx + n * lig_n;
  float* lz = ly + n * lig_n;
  for (std::size_t p = 0; p < n; ++p) {
    detail::transform_ligand(*ligand_, poses[p], lx + p * lig_n, ly + p * lig_n, lz + p * lig_n);
  }
  std::fill(out, out + n, 0.0);

  detail::BlockKernelArgs args;
  args.rx = receptor_.x.data();
  args.ry = receptor_.y.data();
  args.rz = receptor_.z.data();
  args.lx = lx;
  args.ly = ly;
  args.lz = lz;
  args.ltype = ligand_->type.data();
  args.lig_n = lig_n;
  args.n_poses = n;
  args.energy = out;

  const auto kernel = options_.simd == SimdLevel::kAvx2 ? detail::score_block_tile_avx2
                                                        : detail::score_block_tile_scalar;
  // The tile streams through every pose of the block before the next tile
  // loads — one receptor pass per block, not per pose.
  for (std::size_t t = 0; t < receptor_.tiles(); ++t) {
    args.runs = receptor_.runs.data() + receptor_.tile_runs[t];
    args.n_runs = receptor_.tile_runs[t + 1] - receptor_.tile_runs[t];
    kernel(args);
  }
}

void BatchScoringEngine::score_batch(std::span<const Pose> poses, std::span<double> out) const {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("BatchScoringEngine::score_batch: size mismatch");
  }
  // The transformed poses live on this thread's stack: nothing to size,
  // share or keep between calls, so scoring allocates nothing whichever
  // thread scores which block.
  std::array<float, kStackScratchFloats> stack{};
  std::vector<float> heap;  // only for a ligand too large for one pose
  const std::size_t per_pose = 3 * ligand_->size();
  std::size_t block = std::min(static_cast<std::size_t>(options_.pose_block),
                               stack.size() / per_pose);
  float* scratch = stack.data();
  if (block == 0) {
    block = 1;
    heap.resize(per_pose);
    scratch = heap.data();
  }
  for (std::size_t base = 0; base < poses.size(); base += block) {
    const std::size_t n = std::min(block, poses.size() - base);
    score_block(poses.data() + base, n, out.data() + base, scratch);
  }
}

double BatchScoringEngine::score(const Pose& pose) const {
  double out = 0.0;
  score_batch(std::span<const Pose>(&pose, 1), std::span<double>(&out, 1));
  return out;
}

}  // namespace metadock::scoring
