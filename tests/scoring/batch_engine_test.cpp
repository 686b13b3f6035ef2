// Property tests for the batched scoring engine: the type-partitioned
// layout is a permutation of the receptor, and every implementation —
// reference score(), batched-scalar, batched-SIMD — computes the same
// energy up to FP association order.
#include "scoring/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mol/synth.h"
#include "util/rng.h"

namespace metadock::scoring {
namespace {

mol::Molecule make_receptor(std::size_t atoms, std::uint64_t seed = 11) {
  mol::ReceptorParams p;
  p.atom_count = atoms;
  p.seed = seed;
  return mol::make_receptor(p);
}

mol::Molecule make_ligand(std::size_t atoms, std::uint64_t seed = 12) {
  mol::LigandParams p;
  p.atom_count = atoms;
  p.seed = seed;
  return mol::make_ligand(p);
}

std::vector<Pose> random_poses(std::size_t n, std::uint64_t seed = 5) {
  util::Xoshiro256 rng(seed);
  std::vector<Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-12, 12)),
                  static_cast<float>(rng.uniform(-12, 12)),
                  static_cast<float>(rng.uniform(-12, 12))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

/// FP-association tolerance: the paths reorder float additions, nothing
/// else, so agreement is a few ulps of the largest partial sum.
void expect_close(double got, double ref, const char* what, std::size_t i) {
  EXPECT_NEAR(got, ref, 1e-4 * (1.0 + std::abs(ref))) << what << " pose " << i;
}

// ---------------------------------------------------------------------------
// PartitionedReceptor properties

TEST(PartitionedReceptor, PermutationRoundTripsEveryAtom) {
  const mol::Molecule mol = make_receptor(517);  // not a tile multiple
  const ReceptorAtoms receptor = ReceptorAtoms::from(mol);
  for (std::size_t tile : {1u, 17u, 64u, 256u, 1000u}) {
    const PartitionedReceptor part = PartitionedReceptor::build(receptor, tile);
    ASSERT_EQ(part.size(), receptor.size()) << "tile " << tile;

    // perm is a permutation of [0, n).
    std::vector<std::uint32_t> seen(part.size(), 0);
    for (std::uint32_t src : part.perm) {
      ASSERT_LT(src, part.size());
      ++seen[src];
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](std::uint32_t c) { return c == 1; }))
        << "tile " << tile;

    // Every atom's payload survives the reorder.
    for (std::size_t dst = 0; dst < part.size(); ++dst) {
      const std::size_t src = part.perm[dst];
      EXPECT_EQ(part.x[dst], receptor.x[src]);
      EXPECT_EQ(part.y[dst], receptor.y[src]);
      EXPECT_EQ(part.z[dst], receptor.z[src]);
      EXPECT_EQ(part.type[dst], receptor.type[src]);
    }
  }
}

TEST(PartitionedReceptor, RunsAreTileBoundedAndTypeConstant) {
  const mol::Molecule mol = make_receptor(517);
  const ReceptorAtoms receptor = ReceptorAtoms::from(mol);
  for (std::size_t tile : {1u, 17u, 64u, 256u, 1000u}) {
    const PartitionedReceptor part = PartitionedReceptor::build(receptor, tile);
    ASSERT_EQ(part.tiles(), (part.size() + tile - 1) / tile) << "tile " << tile;

    std::size_t covered = 0;
    for (std::size_t t = 0; t < part.tiles(); ++t) {
      const std::size_t tile_lo = t * tile;
      const std::size_t tile_hi = std::min(part.size(), tile_lo + tile);
      for (std::uint32_t r = part.tile_runs[t]; r < part.tile_runs[t + 1]; ++r) {
        const TypeRun& run = part.runs[r];
        ASSERT_GT(run.count, 0u);
        // Runs never straddle a tile boundary: the partition only permutes
        // *within* tiles, which is what keeps the batched energy within FP
        // association distance of the reference path.
        EXPECT_GE(run.begin, tile_lo);
        EXPECT_LE(run.begin + run.count, tile_hi);
        for (std::size_t i = run.begin; i < run.begin + run.count; ++i) {
          EXPECT_EQ(part.type[i], run.type);
        }
        covered += run.count;
      }
    }
    EXPECT_EQ(covered, part.size()) << "tile " << tile;

    // Atom i stays in tile i / tile_size.
    for (std::size_t dst = 0; dst < part.size(); ++dst) {
      EXPECT_EQ(dst / tile, part.perm[dst] / tile) << "tile " << tile;
    }
  }
}

TEST(PartitionedReceptor, ZeroTileSizeThrows) {
  const ReceptorAtoms receptor = ReceptorAtoms::from(make_receptor(10));
  EXPECT_THROW(PartitionedReceptor::build(receptor, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Implementation equivalence

/// Parameter: the receptor tile size.
class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, ScalarSimdAndReferenceAgree) {
  const mol::Molecule rec = make_receptor(333);  // not a multiple of any tile
  const mol::Molecule lig = make_ligand(13);
  const LennardJonesScorer scorer(rec, lig);

  BatchEngineOptions scalar_opt;
  scalar_opt.simd = SimdLevel::kScalar;
  scalar_opt.pose_block = 16;
  scalar_opt.tile_size = GetParam();
  const BatchScoringEngine scalar(scorer, scalar_opt);

  // Batch sizes around the pose-block boundary: 1, a partial block, one
  // full block, and a block plus a remainder.
  for (std::size_t n : {1u, 7u, 16u, 17u}) {
    const auto poses = random_poses(n, 100 + n);
    std::vector<double> got(n);
    scalar.score_batch(poses, got);
    for (std::size_t i = 0; i < n; ++i) {
      expect_close(got[i], scorer.score(poses[i]), "scalar-vs-reference", i);
      // Pose-block traversal must not change per-pose energies: a block of
      // one is the degenerate traversal, so it pins block invariance.
      EXPECT_DOUBLE_EQ(got[i], scalar.score(poses[i])) << i;
    }

    if (simd_kernel_supported()) {
      BatchEngineOptions simd_opt = scalar_opt;
      simd_opt.simd = SimdLevel::kAvx2;
      const BatchScoringEngine simd(scorer, simd_opt);
      std::vector<double> simd_got(n);
      simd.score_batch(poses, simd_got);
      for (std::size_t i = 0; i < n; ++i) {
        expect_close(simd_got[i], got[i], "simd-vs-scalar", i);
        expect_close(simd_got[i], scorer.score(poses[i]), "simd-vs-reference", i);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchEquivalence, ::testing::Values(256, 1, 17, 4096));

TEST(BatchScoringEngine, AutoImplResolvesToConcrete) {
  EXPECT_NE(resolve_scoring_impl(ScoringImpl::kAuto), ScoringImpl::kAuto);
  EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kBatched), ScoringImpl::kBatched);
  EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kBatchedSimd), ScoringImpl::kBatchedSimd);
  // The kernel each impl runs: kBatched pins scalar, kAuto follows cpuid.
  EXPECT_EQ(kernel_simd_level(ScoringImpl::kBatched, SimdLevel::kAvx2), SimdLevel::kScalar);
  EXPECT_EQ(kernel_simd_level(ScoringImpl::kBatchedSimd, SimdLevel::kScalar),
            SimdLevel::kScalar);
  EXPECT_EQ(kernel_simd_level(ScoringImpl::kAuto, default_simd_level()), default_simd_level());
  if (simd_kernel_supported()) {
    EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kAuto), ScoringImpl::kBatchedSimd);
  } else {
    EXPECT_EQ(resolve_scoring_impl(ScoringImpl::kAuto), ScoringImpl::kBatched);
  }
}

TEST(BatchScoringEngine, ImplAndLevelNamesAreStable) {
  // Reports and the benchmark's detail line print these names.
  EXPECT_EQ(scoring_impl_name(ScoringImpl::kAuto), "auto");
  EXPECT_EQ(scoring_impl_name(ScoringImpl::kBatched), "batched-scalar");
  EXPECT_EQ(scoring_impl_name(ScoringImpl::kBatchedSimd), "batched-simd");
  EXPECT_EQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(simd_level_name(SimdLevel::kAvx2), "avx2");
  EXPECT_EQ(default_simd_level(),
            simd_kernel_supported() ? SimdLevel::kAvx2 : SimdLevel::kScalar);
}

TEST(BatchScoringEngine, BadOptionsThrow) {
  const mol::Molecule rec = make_receptor(50);
  const mol::Molecule lig = make_ligand(5);
  const LennardJonesScorer scorer(rec, lig);
  EXPECT_THROW(BatchScoringEngine(scorer, {.pose_block = 0}), std::invalid_argument);
  EXPECT_THROW(BatchScoringEngine(scorer, {.tile_size = 0}), std::invalid_argument);
  if (!simd_kernel_supported()) {
    BatchEngineOptions simd_opt;
    simd_opt.simd = SimdLevel::kAvx2;
    EXPECT_THROW(BatchScoringEngine(scorer, simd_opt), std::invalid_argument);
  }
}

TEST(BatchScoringEngine, BlocksPastTheStackScratchScoreTheSame) {
  // 100 atoms x 16 poses outgrow the stack scratch, so blocks are swept
  // in parts; 1,100 atoms do not fit even one pose, which takes heap
  // scratch.  A pose's energy must not change either way.
  const mol::Molecule rec = make_receptor(60);
  for (const std::size_t atoms : {std::size_t{100}, std::size_t{1100}}) {
    const mol::Molecule lig = make_ligand(atoms);
    const LennardJonesScorer scorer(rec, lig);
    ASSERT_GT(16 * 3 * atoms, kStackScratchFloats);
    const auto poses = random_poses(19);
    std::vector<double> blocked(poses.size()), single(poses.size());
    BatchScoringEngine(scorer, {.pose_block = 16}).score_batch(poses, blocked);
    BatchScoringEngine(scorer, {.pose_block = 1}).score_batch(poses, single);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(blocked[i], single[i]) << atoms << " atoms, pose " << i;
      expect_close(blocked[i], scorer.score(poses[i]), "blocked-vs-reference", i);
    }
  }
}

TEST(BatchScoringEngine, SizeMismatchThrows) {
  const mol::Molecule rec = make_receptor(50);
  const mol::Molecule lig = make_ligand(5);
  const LennardJonesScorer scorer(rec, lig);
  const BatchScoringEngine engine(scorer);
  const auto poses = random_poses(4);
  std::vector<double> out(3);
  EXPECT_THROW(engine.score_batch(poses, out), std::invalid_argument);
}

}  // namespace
}  // namespace metadock::scoring
