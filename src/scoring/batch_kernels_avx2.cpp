// Explicit AVX2/FMA kernel for the batched scoring engine.
//
// This TU is the only one compiled with -mavx2 -mfma (when METADOCK_SIMD is
// ON and the target is x86-64); everything else in the library stays at the
// baseline ISA, and batch_engine.cpp picks this kernel at runtime via
// cpuid.  Without METADOCK_SIMD the stub at the bottom keeps the symbol
// defined so no build configuration needs link-time surgery.
//
// Per (pose, block of four ligand atoms, run): each atom's PairCoeff is
// broadcast once, and the inner loop walks the run 8 receptor atoms per
// step (unaligned loads — the partitioned SoA has no alignment guarantee).
// Every receptor load serves all four atoms of the block, the CPU form of
// the paper's tile that every warp of a block reuses.  Each pair's LJ (and
// optionally Coulomb) term takes FMAs and one division (true IEEE divide,
// not a reciprocal approximation, so lanes match the scalar kernel per
// pair), and lanes past the cutoff are masked.  The last < 8 atoms of a
// run take one masked step: _mm256_maskload_ps reads no masked-off lane,
// so the step never reads past the receptor arrays.  `lig_n % 4` leftover
// atoms run the same code at a block width of 1.
//
// Each atom keeps its own float vector sum across the run's full steps (a
// run is at most tile_size atoms, so the partial sums stay at per-pair
// rounding scale), one horizontal sum per run feeds the atom's double
// sum, the masked step's lanes follow one at a time in lane order, and the
// atoms' sums join the pose energy in atom order — the same "float pairs,
// double total" contract as the scalar kernel.
//
// The coulomb and cutoff flags are hoisted out of the hot loop via
// template parameters: the common full-pair-sum case (no cutoff, LJ only)
// runs with zero per-iteration branching or masking.
#include "scoring/batch_engine.h"

#if defined(METADOCK_SIMD_AVX2)

#include <immintrin.h>

#include <limits>

#include "scoring/pair_params.h"

namespace metadock::scoring {

bool simd_kernel_compiled() noexcept { return true; }

namespace detail {

namespace {

/// Ligand atoms that share each receptor load.
constexpr std::size_t kAtomBlock = 4;

/// Sum of one 8-lane float accumulator.
inline double hsum(__m256 v) noexcept {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return static_cast<double>(_mm_cvtss_f32(s));
}

/// Scores ligand atoms [j, j + kWidth) of one pose (lx/ly/lz point at the
/// pose's atoms) against the tile's runs and adds each atom's energy to
/// `energy`, in atom order.
template <std::size_t kWidth, bool kCoulomb, bool kCutoff>
void score_atoms(const BlockKernelArgs& a, const float* lx, const float* ly, const float* lz,
                 std::size_t j, double& energy) {
  const PairTable& table = PairTable::instance();
  const __m256 vmin_r2 = _mm256_set1_ps(kMinR2);
  const __m256 vcut2 = _mm256_set1_ps(a.cutoff2 > 0.0f ? a.cutoff2
                                                       : std::numeric_limits<float>::infinity());
  const __m256 vone = _mm256_set1_ps(1.0f);
  const __m256i vlane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);

  __m256 vpx[kWidth], vpy[kWidth], vpz[kWidth], vqscale[kWidth];
  const PairCoeff* row[kWidth];
  double e[kWidth];
  for (std::size_t k = 0; k < kWidth; ++k) {
    vpx[k] = _mm256_set1_ps(lx[j + k]);
    vpy[k] = _mm256_set1_ps(ly[j + k]);
    vpz[k] = _mm256_set1_ps(lz[j + k]);
    vqscale[k] = _mm256_set1_ps(kCoulomb ? kCoulombConst * a.lcharge[j + k] / a.dielectric : 0.0f);
    row[k] = table.row(static_cast<mol::Element>(a.ltype[j + k]));
    e[k] = 0.0;
  }

  for (std::size_t r = 0; r < a.n_runs; ++r) {
    const TypeRun& run = a.runs[r];
    __m256 va[kWidth], vb[kWidth], vsum[kWidth];
    for (std::size_t k = 0; k < kWidth; ++k) {
      va[k] = _mm256_set1_ps(row[k][run.type].a);
      vb[k] = _mm256_set1_ps(row[k][run.type].b);
      vsum[k] = _mm256_setzero_ps();
    }
    const std::size_t end = run.begin + run.count;
    std::size_t i = run.begin;
    for (; i + 8 <= end; i += 8) {
      const __m256 rx = _mm256_loadu_ps(a.rx + i);
      const __m256 ry = _mm256_loadu_ps(a.ry + i);
      const __m256 rz = _mm256_loadu_ps(a.rz + i);
      const __m256 rq = kCoulomb ? _mm256_loadu_ps(a.rcharge + i) : _mm256_setzero_ps();
      for (std::size_t k = 0; k < kWidth; ++k) {
        const __m256 dx = _mm256_sub_ps(rx, vpx[k]);
        const __m256 dy = _mm256_sub_ps(ry, vpy[k]);
        const __m256 dz = _mm256_sub_ps(rz, vpz[k]);
        __m256 r2 = _mm256_fmadd_ps(dz, dz, _mm256_fmadd_ps(dy, dy, _mm256_mul_ps(dx, dx)));
        r2 = _mm256_max_ps(r2, vmin_r2);
        const __m256 inv2 = _mm256_div_ps(vone, r2);
        const __m256 inv6 = _mm256_mul_ps(_mm256_mul_ps(inv2, inv2), inv2);
        __m256 pair = _mm256_mul_ps(_mm256_fmsub_ps(va[k], inv6, vb[k]), inv6);
        if constexpr (kCoulomb) {
          pair = _mm256_fmadd_ps(_mm256_mul_ps(vqscale[k], rq), inv2, pair);
        }
        if constexpr (kCutoff) {
          pair = _mm256_and_ps(pair, _mm256_cmp_ps(r2, vcut2, _CMP_LE_OQ));
        }
        vsum[k] = _mm256_add_ps(vsum[k], pair);
      }
    }
    for (std::size_t k = 0; k < kWidth; ++k) e[k] += hsum(vsum[k]);
    if (i == end) continue;

    // Masked step over the run's last rem < 8 atoms.  Its FP order is not
    // the body's: the pinned energies (kernel_avx2.golden, hits.golden)
    // come from a scalar tail loop that GCC 12 contracted into FMAs its own
    // way, so r2 sums dy*dy first and each Coulomb variant fuses a
    // different product.  Spelling that order out keeps every energy bit.
    const std::size_t rem = end - i;
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(rem)), vlane);
    const __m256 rx = _mm256_maskload_ps(a.rx + i, mask);
    const __m256 ry = _mm256_maskload_ps(a.ry + i, mask);
    const __m256 rz = _mm256_maskload_ps(a.rz + i, mask);
    const __m256 rq = kCoulomb ? _mm256_maskload_ps(a.rcharge + i, mask) : _mm256_setzero_ps();
    for (std::size_t k = 0; k < kWidth; ++k) {
      const __m256 dx = _mm256_sub_ps(rx, vpx[k]);
      const __m256 dy = _mm256_sub_ps(ry, vpy[k]);
      const __m256 dz = _mm256_sub_ps(rz, vpz[k]);
      __m256 r2 = _mm256_fmadd_ps(dz, dz, _mm256_fmadd_ps(dx, dx, _mm256_mul_ps(dy, dy)));
      r2 = _mm256_max_ps(r2, vmin_r2);
      const __m256 inv2 = _mm256_div_ps(vone, r2);
      const __m256 inv6 = _mm256_mul_ps(_mm256_mul_ps(inv2, inv2), inv2);
      const __m256 lj = _mm256_fmsub_ps(va[k], inv6, vb[k]);
      const __m256 q = _mm256_mul_ps(vqscale[k], rq);
      __m256 pair;
      if constexpr (kCoulomb && kCutoff) {
        pair = _mm256_fmadd_ps(q, inv2, _mm256_mul_ps(lj, inv6));
      } else if constexpr (kCoulomb) {
        pair = _mm256_fmadd_ps(lj, inv6, _mm256_mul_ps(q, inv2));
      } else {
        pair = _mm256_mul_ps(lj, inv6);
      }
      if constexpr (kCutoff) {
        pair = _mm256_and_ps(pair, _mm256_cmp_ps(r2, vcut2, _CMP_LE_OQ));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, pair);
      for (std::size_t l = 0; l < rem; ++l) e[k] += lanes[l];
    }
  }
  for (std::size_t k = 0; k < kWidth; ++k) energy += e[k];
}

template <bool kCoulomb, bool kCutoff>
void score_block_tile(const BlockKernelArgs& a) {
  for (std::size_t p = 0; p < a.n_poses; ++p) {
    const float* lx = a.lx + p * a.lig_n;
    const float* ly = a.ly + p * a.lig_n;
    const float* lz = a.lz + p * a.lig_n;
    double energy = 0.0;
    std::size_t j = 0;
    for (; j + kAtomBlock <= a.lig_n; j += kAtomBlock) {
      score_atoms<kAtomBlock, kCoulomb, kCutoff>(a, lx, ly, lz, j, energy);
    }
    for (; j < a.lig_n; ++j) score_atoms<1, kCoulomb, kCutoff>(a, lx, ly, lz, j, energy);
    a.energy[p] += energy;
  }
}

}  // namespace

void score_block_tile_avx2(const BlockKernelArgs& a) {
  const bool cut = a.cutoff2 > 0.0f;
  if (a.coulomb) {
    cut ? score_block_tile<true, true>(a) : score_block_tile<true, false>(a);
  } else {
    cut ? score_block_tile<false, true>(a) : score_block_tile<false, false>(a);
  }
}

}  // namespace detail
}  // namespace metadock::scoring

#else  // !METADOCK_SIMD_AVX2

#include <cstdlib>

namespace metadock::scoring {

bool simd_kernel_compiled() noexcept { return false; }

namespace detail {

void score_block_tile_avx2(const BlockKernelArgs&) {
  // Unreachable: BatchScoringEngine refuses kAvx2 when !simd_kernel_compiled().
  std::abort();
}

}  // namespace detail
}  // namespace metadock::scoring

#endif  // METADOCK_SIMD_AVX2
