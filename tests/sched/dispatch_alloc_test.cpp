// The dispatch's allocation contract (DESIGN.md §12.3): a batch, cost-only
// or real, and a whole cost-only schedule allocate nothing once warm, and a
// cost-only estimate copies no atoms.  This binary
// replaces the global operator new with a counting one, which is why it is
// a test target of its own: linked into sched_test it would count for
// every test there.
//
// Allocations are counted on every thread, the pool workers included: the
// host pass scores in stack scratch, so no participant allocates whichever
// blocks it claims.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "meta/engine.h"
#include "meta/params.h"
#include "meta/trace.h"
#include "mol/synth.h"
#include "scoring/lennard_jones.h"
#include "sched/executor.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};
std::atomic<std::size_t> g_bytes{0};

void* counted_new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_new_nothrow(std::size_t size) noexcept {
  try {
    return counted_new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

// Every non-aligned form is replaced, so each delete frees memory that the
// matching new took from malloc (sanitizer builds check that pairing).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_new_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace metadock::sched {
namespace {

struct Count {
  std::size_t news = 0;
  std::size_t bytes = 0;
};

/// operator new calls and bytes made on any thread while `fn` runs.
template <typename Fn>
Count counted(Fn&& fn) {
  g_news.store(0);
  g_bytes.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return {g_news.load(), g_bytes.load()};
}

/// The three strategies' splitter settings on `node`: heterogeneous
/// (unequal static shares), homogeneous (equal) and cooperative.
std::vector<std::pair<std::string, MultiGpuOptions>> strategies(const NodeConfig& node,
                                                                bool overlap) {
  MultiGpuOptions base;
  base.overlap = overlap;
  base.cpu_fallback = node.cpu;
  MultiGpuOptions het = base;
  for (std::size_t d = 0; d < node.gpus.size(); ++d) {
    het.shares.push_back(1.0 + static_cast<double>(d));
  }
  MultiGpuOptions coop = base;
  coop.dynamic = true;
  return {{"het", het}, {"hom", base}, {"coop", coop}};
}

std::vector<scoring::Pose> random_poses(std::size_t n) {
  util::Xoshiro256 rng(9);
  std::vector<scoring::Pose> poses(n);
  for (scoring::Pose& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

TEST(DispatchAlloc, CostOnlyBatchDoesNotAllocate) {
  // Nine batch sizes after the warm-up give each device more distinct
  // slice counts than the overlap guard's four-entry memo holds, and the
  // scorer more batch sizes than its two replay slots, so entries of both
  // are replaced while counting (the 1,024-pose batch replays where the
  // pipeline is static).  Then M4's 2,497-batch schedule in one call: one
  // per-op batch that records its size, then one replayed run where the
  // pipeline is static.
  const meta::DockingProblem& problem = testing::paper_problem();
  const scoring::AtomCounts atoms = scoring::AtomCounts::of(*problem.receptor, *problem.ligand);
  const meta::WorkloadTrace m4 = meta::WorkloadTrace::from_params(meta::m4_local_search());
  ASSERT_EQ(m4.per_spot_batches.size(), 2497u);
  for (const NodeConfig& node : {hertz(), jupiter()}) {
    for (const bool overlap : {true, false}) {
      for (const auto& [name, options] : strategies(node, overlap)) {
        SCOPED_TRACE(node.name + " " + name + (overlap ? "+overlap" : ""));
        gpusim::Runtime rt(node.gpus);
        MultiGpuBatchScorer mgs(rt, atoms, options);
        // Warm at the largest size: streams, split scratch, worklist.
        mgs.evaluate_cost_only(1024);
        const Count c = counted([&] {
          for (std::size_t n = 1024; n >= 512; n -= 64) mgs.evaluate_cost_only(n);
        });
        EXPECT_EQ(c.news, 0u) << c.bytes << " bytes in 9 batches";
        const Count schedule = counted([&] { mgs.evaluate_cost_only(m4.per_spot_batches, 1); });
        EXPECT_EQ(schedule.news, 0u) << schedule.bytes << " bytes in the 2,497-batch schedule";
      }
    }
  }
}

TEST(DispatchAlloc, RealBatchAllocatesTheSameEveryBatch) {
  // The same count every batch, and that count is 0: the scheduler's
  // scratch is sized once, the host pass's parallel_for keeps no per-call
  // state on the heap, and every participant scores in stack scratch.
  const meta::DockingProblem& problem = testing::tiny_problem();
  const scoring::LennardJonesScorer scorer(*problem.receptor, *problem.ligand);
  const std::vector<scoring::Pose> poses = random_poses(512);
  std::vector<double> out(poses.size());
  for (const NodeConfig& node : {hertz(), jupiter()}) {
    SCOPED_TRACE(node.name);
    gpusim::Runtime rt(node.gpus);
    MultiGpuBatchScorer mgs(rt, scorer, strategies(node, true).front().second);
    mgs.evaluate(poses, out);  // warm: the receptor layout
    const Count c = counted([&] {
      for (int b = 0; b < 4; ++b) mgs.evaluate(poses, out);
    });
    EXPECT_EQ(c.news, 0u) << c.bytes << " bytes in 4 batches";
  }
}

TEST(DispatchAlloc, EstimateCopiesNoAtoms) {
  // The cost models price from atom counts, so a cost-only estimate copies
  // no atoms: an estimate on 2BXG (8,609 receptor atoms) allocates exactly
  // the bytes one on 2BSM (3,264) does, and neither builds the receptor
  // layout only real scoring reads.
  const auto estimate_bytes = [](const mol::Dataset& dataset) {
    const mol::Molecule receptor = mol::make_dataset_receptor(dataset);
    const mol::Molecule ligand = mol::make_dataset_ligand(dataset);
    const meta::DockingProblem problem = meta::make_problem(receptor, ligand, 42);
    NodeExecutor exec(jupiter());
    return counted([&] { (void)exec.estimate(problem, meta::m1_genetic()); });
  };
  // The first estimate on this thread also grows split_batch_into's
  // thread_local scratch; leave that out of both counts.
  (void)estimate_bytes(mol::kDataset2BSM);
  const Count bsm = estimate_bytes(mol::kDataset2BSM);
  const Count bxg = estimate_bytes(mol::kDataset2BXG);
  EXPECT_EQ(bxg.bytes, bsm.bytes) << "2BXG " << bxg.news << " allocations / " << bxg.bytes
                                  << " bytes; 2BSM " << bsm.news << " / " << bsm.bytes;
  EXPECT_EQ(bxg.news, bsm.news);
}

}  // namespace
}  // namespace metadock::sched
