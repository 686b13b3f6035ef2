// Batched, SIMD-vectorized host scoring engine — the one host path behind
// every evaluator and virtual kernel.
//
// The reference loop (`LennardJonesScorer::score`) re-streams the whole
// receptor once per pose and cannot vectorize its inner loop because of
// the per-atom `PairCoeff` gather (`row[rtype[i]]`).  This engine
// restructures the hot loop along two axes:
//
//   1. Pose-blocked x receptor-tiled traversal: `score_batch` transforms a
//      block of poses once, then streams each receptor tile through *all*
//      poses in the block before moving on — the CPU-cache mirror of the
//      paper's shared-memory tile being reused by every warp in a block.
//      The receptor is read from memory once per block instead of once per
//      pose.
//
//   2. Type-partitioned receptor layout: atoms of the same element form
//      contiguous runs inside each tile, so the `PairCoeff` lookup becomes
//      a loop constant per run and the inner loop is pure FMA work that
//      vectorizes cleanly.
//
// Two kernels back the engine: a portable scalar one — the only kernel on
// hosts or builds without AVX2 — and an explicit AVX2/FMA one (compiled
// when METADOCK_SIMD is ON and the target is x86-64; picked at runtime via
// cpuid).  Both traverse runs in the same order and accumulate per-pair
// float terms into double, so they agree with each other — and with
// score() — up to FP association order (the equivalence property tests
// pin this down).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "scoring/lennard_jones.h"
#include "scoring/pose.h"

namespace metadock::scoring {

// ---------------------------------------------------------------------------
// SIMD capability / implementation selection

enum class SimdLevel : std::uint8_t { kScalar, kAvx2 };

/// True when the AVX2/FMA kernel was compiled into this binary
/// (METADOCK_SIMD=ON on an x86-64 target).
[[nodiscard]] bool simd_kernel_compiled() noexcept;

/// True when the AVX2 kernel is compiled *and* the CPU we are running on
/// supports AVX2+FMA (runtime cpuid dispatch).
[[nodiscard]] bool simd_kernel_supported() noexcept;

/// kAvx2 when this host can run the AVX2 kernel, else kScalar.  The scalar
/// kernel is always present — dispatch can never come up empty.
[[nodiscard]] SimdLevel default_simd_level() noexcept;

[[nodiscard]] std::string_view simd_level_name(SimdLevel level) noexcept;

/// True when `level` can execute on this host (kScalar always can).
[[nodiscard]] bool simd_level_supported(SimdLevel level) noexcept;

/// Kernel selection behind the evaluators / the virtual kernels:
///   kBatched     — the portable scalar kernel,
///   kBatchedSimd — the kernel named by the SimdLevel alongside it,
///   kAuto        — kBatchedSimd when the CPU supports AVX2+FMA, else
///                  kBatched (the default: cpuid picks the kernel).
enum class ScoringImpl : std::uint8_t { kAuto, kBatched, kBatchedSimd };

/// Resolves kAuto to a concrete implementation for this host:
/// kBatchedSimd when the AVX2 kernel is compiled in and the CPU supports
/// it, kBatched otherwise.  Non-auto values pass through unchanged.
[[nodiscard]] ScoringImpl resolve_scoring_impl(ScoringImpl impl) noexcept;

[[nodiscard]] std::string_view scoring_impl_name(ScoringImpl impl) noexcept;

/// The kernel `impl` runs: kBatched pins kScalar, kBatchedSimd runs
/// `simd`, kAuto resolves first.
[[nodiscard]] SimdLevel kernel_simd_level(ScoringImpl impl, SimdLevel simd) noexcept;

// ---------------------------------------------------------------------------
// Type-partitioned receptor layout

/// One maximal run of same-element receptor atoms inside a tile; `begin`
/// indexes the partitioned SoA arrays.
struct TypeRun {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
  std::uint8_t type = 0;
};

/// Receptor SoA reordered so that atoms of the same element are contiguous
/// inside each tile.  Tile boundaries match the unpartitioned layout (atom
/// `i` stays in tile `i / tile_size`); only the order *within* a tile
/// changes, and the permutation is stable per element, so the energy sum
/// differs from score() only by FP association order.
struct PartitionedReceptor {
  std::vector<float> x, y, z, charge;
  std::vector<std::uint8_t> type;
  /// perm[partitioned index] = original receptor index (round-trip tested).
  std::vector<std::uint32_t> perm;
  /// All runs, tile-major; tile t owns runs [tile_runs[t], tile_runs[t+1]).
  std::vector<TypeRun> runs;
  std::vector<std::uint32_t> tile_runs;
  std::size_t tile_size = 0;

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }
  [[nodiscard]] std::size_t tiles() const noexcept {
    return tile_runs.empty() ? 0 : tile_runs.size() - 1;
  }

  static PartitionedReceptor build(const ReceptorAtoms& receptor, std::size_t tile_size);
};

// ---------------------------------------------------------------------------
// The engine

struct BatchEngineOptions {
  /// Poses transformed and kept hot per receptor sweep (the CPU analogue of
  /// warps-per-block).  Each pose costs lig_n * 12 bytes of scratch.
  int pose_block = 16;
  /// Kernel to run; construction throws when kAvx2 is requested on a host
  /// without AVX2/FMA (use default_simd_level() to auto-detect).
  SimdLevel simd = default_simd_level();
};

class BatchScoringEngine {
 public:
  /// Snapshots the scorer's receptor into the partitioned layout.  Holds a
  /// reference to the scorer's ligand and options, so the scorer must
  /// outlive the engine (same lifetime contract as DeviceScoringKernel).
  explicit BatchScoringEngine(const LennardJonesScorer& scorer, BatchEngineOptions options = {});

  /// Scores every pose into out (same indexing), pose_block poses at a
  /// time.  Thread-safe: scratch is grow-only and thread_local, shared
  /// state is const.
  void score_batch(std::span<const Pose> poses, std::span<double> out) const;

  /// Single-pose convenience (a block of one).
  [[nodiscard]] double score(const Pose& pose) const;

  [[nodiscard]] const PartitionedReceptor& receptor() const noexcept { return receptor_; }
  [[nodiscard]] SimdLevel simd() const noexcept { return options_.simd; }
  [[nodiscard]] int pose_block() const noexcept { return options_.pose_block; }
  [[nodiscard]] std::uint64_t pairs_per_eval() const noexcept {
    return static_cast<std::uint64_t>(receptor_.size()) * ligand_->size();
  }

 private:
  void score_block(const Pose* poses, std::size_t n, double* out) const;

  const LigandAtoms* ligand_;
  ScoringOptions scoring_;
  BatchEngineOptions options_;
  PartitionedReceptor receptor_;
};

// ---------------------------------------------------------------------------
// Kernels (internal; exposed for the equivalence tests)

namespace detail {

/// One receptor tile (as a run range) against a block of transformed
/// ligands.  lx/ly/lz are pose-major: pose p's atom j lives at
/// [p * lig_n + j].  energy[p] is accumulated into (callers zero it once
/// per batch).
struct BlockKernelArgs {
  const float* rx = nullptr;
  const float* ry = nullptr;
  const float* rz = nullptr;
  const float* rcharge = nullptr;
  const TypeRun* runs = nullptr;
  std::size_t n_runs = 0;
  const float* lx = nullptr;
  const float* ly = nullptr;
  const float* lz = nullptr;
  const std::uint8_t* ltype = nullptr;
  const float* lcharge = nullptr;
  std::size_t lig_n = 0;
  std::size_t n_poses = 0;
  bool coulomb = false;
  float dielectric = 4.0f;
  float cutoff2 = 0.0f;
  double* energy = nullptr;
};

/// Portable fallback: same run traversal as the AVX2 kernel, plain scalar
/// float math, double accumulation.
void score_block_tile_scalar(const BlockKernelArgs& args);

/// Explicit AVX2/FMA kernel; calling it when !simd_kernel_compiled() is a
/// logic error (std::abort via the stub).
void score_block_tile_avx2(const BlockKernelArgs& args);

}  // namespace detail

}  // namespace metadock::scoring
