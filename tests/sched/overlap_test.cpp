// Overlapped (double-buffered) dispatch of the batch scorer: strategy
// invariance (bit-identical science with --overlap on|off, with and
// without an injected mid-run device death), latency hiding on a
// transfer-bound workload, the concurrent CPU tail partition, re-splits
// of in-flight half-batches, and the evaluate_cost_only replay-parity
// guarantee for the rebalance window.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "gpusim/fault_plan.h"
#include "gpusim/runtime.h"
#include "meta/params.h"
#include "mol/synth.h"
#include "obs/observer.h"
#include "scoring/batch_engine.h"
#include "sched/executor.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace metadock::sched {
namespace {

using testing::mixed_node_runtime;
using testing::tiny_problem;

/// Fragment-sized docking system: 352 pairs per pose makes the kernel
/// cheap relative to the PCIe copies, so the pipeline's latency hiding is
/// visible in the virtual timeline (the regime BENCH_scoring.json gates).
struct FragmentFixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  FragmentFixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 32;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 11;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n, std::uint64_t seed = 5) {
  util::Xoshiro256 rng(seed);
  std::vector<scoring::Pose> poses(n);
  for (auto& p : poses) {
    p.position = {static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10)),
                  static_cast<float>(rng.uniform(-10, 10))};
    p.orientation = geom::random_quat(rng.uniformf(), rng.uniformf(), rng.uniformf());
  }
  return poses;
}

meta::MetaheuristicParams tiny(meta::MetaheuristicParams p) {
  p.population_per_spot = 8;
  p.generations = 2;
  return p;
}

ExecutorOptions overlap_options(bool overlap) {
  ExecutorOptions o;
  o.strategy = Strategy::kHeterogeneous;
  o.warmup_iterations = 2;
  o.warmup_batch = 256;
  o.overlap = overlap;
  return o;
}

TEST(Overlap, BitIdenticalScienceAcrossMetaheuristics) {
  // The acceptance bar: across M1-M4, --overlap on|off must produce
  // bit-identical spot results, with and without a device death injected
  // mid-run.  Overlap only changes the virtual timeline, never a score.
  const std::vector<std::pair<std::string, meta::MetaheuristicParams>> presets = {
      {"M1", tiny(meta::m1_genetic())},
      {"M2", tiny(meta::m2_scatter_full())},
      {"M3", tiny(meta::m3_scatter_light())},
      {"M4", tiny(meta::m4_local_search())},
  };
  for (const auto& [name, params] : presets) {
    // Fault-free reference: the serial (paper-faithful) path.
    NodeExecutor serial(hertz(), overlap_options(false));
    const ExecutionReport ref = serial.run(tiny_problem(), params);
    std::map<int, double> expected;
    for (const auto& sr : ref.result.spot_results) expected[sr.spot_id] = sr.best.score;
    ASSERT_FALSE(expected.empty());

    // A death halfway through the fault-free makespan lands mid-run in
    // both timelines (overlap finishes no later than serial).
    gpusim::FaultPlan death;
    death.kill(0, 0.5 * ref.makespan_seconds);

    for (const bool overlap : {true, false}) {
      for (const bool inject : {false, true}) {
        ExecutorOptions o = overlap_options(overlap);
        if (inject) o.fault_plan = death;
        NodeExecutor exec(hertz(), o);
        const ExecutionReport r = exec.run(tiny_problem(), params);
        ASSERT_EQ(r.result.spot_results.size(), expected.size());
        for (const auto& sr : r.result.spot_results) {
          EXPECT_DOUBLE_EQ(sr.best.score, expected[sr.spot_id])
              << name << " overlap=" << overlap << " death=" << inject << " spot "
              << sr.spot_id;
        }
        if (inject) {
          EXPECT_EQ(r.faults.devices_lost, 1u) << name << " overlap=" << overlap;
        } else {
          EXPECT_FALSE(r.faults.any()) << name << " overlap=" << overlap;
        }
      }
    }
  }
}

TEST(Overlap, HidesTransfersOnTransferBoundBatches) {
  // Same workload, same shares, same scores — the overlapped pipeline
  // must beat the serial copy->launch->copy round by the BENCH gate
  // (1.25x) on the transfer-bound fragment regime.
  FragmentFixture f;
  const std::size_t batch = 1 << 18;
  const auto batch_time = [&f, batch](bool overlap) {
    gpusim::Runtime rt(hertz().gpus);
    MultiGpuOptions o;
    o.overlap = overlap;
    MultiGpuBatchScorer mgs(rt, f.scorer, o);
    const double setup = mgs.node_seconds();  // molecule upload
    for (int i = 0; i < 4; ++i) mgs.evaluate_cost_only(batch);
    return (mgs.node_seconds() - setup) / 4.0;
  };
  const double serial_s = batch_time(false);
  const double overlapped_s = batch_time(true);
  ASSERT_GT(serial_s, 0.0);
  ASSERT_GT(overlapped_s, 0.0);
  EXPECT_GT(serial_s / overlapped_s, 1.25);
}

TEST(Overlap, CpuTailScoresConcurrentlyAndMatches) {
  FragmentFixture f;
  const auto poses = random_poses(4096);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  const NodeConfig node = hertz();
  gpusim::Runtime rt(node.gpus);
  MultiGpuOptions o;
  o.cpu_tail_share = 0.25;
  o.cpu_fallback = node.cpu;
  MultiGpuBatchScorer mgs(rt, f.scorer, o);
  std::vector<double> got(poses.size());
  mgs.evaluate(poses, got);

  for (std::size_t i = 0; i < poses.size(); ++i) {
    ASSERT_DOUBLE_EQ(got[i], expected[i]) << "pose " << i;
  }
  // The tail really ran on the host engine, concurrently (not as degraded
  // fallback), and every conformation is accounted exactly once.
  EXPECT_GT(mgs.cpu_tail_conformations(), 0u);
  EXPECT_LE(mgs.cpu_tail_conformations(), poses.size() / 4 + 1);
  EXPECT_FALSE(mgs.fault_report().degraded_to_cpu);
  EXPECT_EQ(mgs.fault_report().cpu_fallback_conformations, 0u);
  std::size_t gpu_confs = 0;
  for (const std::size_t c : mgs.device_conformations()) gpu_confs += c;
  EXPECT_EQ(gpu_confs + mgs.cpu_tail_conformations(), poses.size());
  EXPECT_GT(mgs.cpu_energy_joules(), 0.0);
}

TEST(Overlap, CpuTailOptionIsValidated) {
  FragmentFixture f;
  gpusim::Runtime rt(hertz().gpus);
  MultiGpuOptions no_engine;
  no_engine.cpu_tail_share = 0.2;  // no cpu_fallback to run it on
  EXPECT_THROW(MultiGpuBatchScorer(rt, f.scorer, no_engine), std::invalid_argument);
  MultiGpuOptions bad_share;
  bad_share.cpu_fallback = hertz().cpu;
  bad_share.cpu_tail_share = 1.0;  // the GPUs must keep a head partition
  EXPECT_THROW(MultiGpuBatchScorer(rt, f.scorer, bad_share), std::invalid_argument);
}

TEST(Overlap, MidPipelineDeathResplitsWithoutDroppingScores) {
  // Kill device 0 at several points inside its double-buffered pipeline
  // (first half, between the halves, during D2H): whatever prefix
  // completed is kept, the rest re-splits to the survivor, and every
  // score still matches the host reference.
  FragmentFixture f;
  const auto poses = random_poses(2048);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  gpusim::Runtime clean = mixed_node_runtime();
  MultiGpuBatchScorer clean_mgs(clean, f.scorer, {});
  std::vector<double> out(poses.size());
  clean_mgs.evaluate(poses, out);
  const double slice_s = clean.device(0).busy_seconds();
  ASSERT_GT(slice_s, 0.0);

  for (const double frac : {0.2, 0.55, 0.95}) {
    gpusim::FaultPlan plan;
    plan.kill(0, frac * slice_s);
    gpusim::Runtime rt = mixed_node_runtime(plan);
    MultiGpuBatchScorer mgs(rt, f.scorer, {});  // overlap defaults on
    std::vector<double> got(poses.size());
    mgs.evaluate(poses, got);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i], expected[i]) << "kill@" << frac << " pose " << i;
    }
    const FaultReport& r = mgs.fault_report();
    EXPECT_EQ(r.devices_lost, 1u) << "kill@" << frac;
    EXPECT_GE(r.resplits, 1u) << "kill@" << frac;
    EXPECT_TRUE(mgs.quarantined(0)) << "kill@" << frac;
    // The survivor absorbed everything the dead device did not finish.
    EXPECT_EQ(mgs.device_conformations()[0] + mgs.device_conformations()[1], poses.size())
        << "kill@" << frac;
  }
}

TEST(Overlap, LateDeathKeepsTheDeliveredHalfBatch) {
  // At a scale where the double buffer engages (bandwidth-bound halves), a
  // death late in the pipeline must keep the first half's already-
  // downloaded scores: only the in-flight remainder re-splits.
  FragmentFixture f;
  const std::size_t n = 65536;
  gpusim::Runtime clean = mixed_node_runtime();
  MultiGpuBatchScorer clean_mgs(clean, f.scorer, {});
  clean_mgs.evaluate_cost_only(n);
  const double slice_s = clean.device(0).busy_seconds();
  const std::size_t half = clean_mgs.device_conformations()[0] / 2;
  ASSERT_GT(half, 0u);

  gpusim::FaultPlan plan;
  plan.kill(0, 0.9 * slice_s);  // during the second half of the pipeline
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  mgs.evaluate_cost_only(n);
  const FaultReport& r = mgs.fault_report();
  EXPECT_EQ(r.devices_lost, 1u);
  EXPECT_EQ(r.resplits, 1u);
  // The first half came home before the card died; the survivor absorbed
  // exactly the rest.
  EXPECT_EQ(mgs.device_conformations()[0], half);
  EXPECT_EQ(mgs.device_conformations()[1], n - half);
}

TEST(Overlap, LostTimeIsChargedOnce) {
  // A transient followed by a death inside one pipeline: the failed
  // attempts and backoffs belong to the pipeline whose whole time is lost
  // with the device, so the loss can never exceed the device's elapsed
  // time for the batch.
  FragmentFixture f;
  const std::size_t n = 65536;
  gpusim::Runtime clean = mixed_node_runtime();
  MultiGpuBatchScorer clean_mgs(clean, f.scorer, {});
  const double upload_s = clean.device(0).busy_seconds();
  clean_mgs.evaluate_cost_only(n);
  const double slice_s = clean.device(0).busy_seconds() - upload_s;

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    gpusim::FaultPlan plan;
    plan.set_seed(seed).transient(0, 0.5).kill(0, upload_s + 0.6 * slice_s);
    gpusim::Runtime rt = mixed_node_runtime(plan);
    MultiGpuBatchScorer mgs(rt, f.scorer, {});
    const double before = rt.device(0).busy_seconds();
    mgs.evaluate_cost_only(n);
    const double elapsed = rt.device(0).busy_seconds() - before;
    const FaultReport& r = mgs.fault_report();
    EXPECT_EQ(r.devices_lost, 1u) << "seed " << seed;
    EXPECT_LE(r.time_lost_seconds, elapsed) << "seed " << seed;
  }
}

TEST(Overlap, CostOnlyReplayMatchesRealRunTime) {
  // evaluate_cost_only must feed the rebalance window (window_confs_/
  // window_seconds_) exactly like evaluate: with periodic rebalancing on,
  // a trace replay re-derives the same shares at the same batches and
  // lands on the identical barrier-aware node time.
  FragmentFixture f;
  const auto poses = random_poses(512);
  for (const bool overlap : {true, false}) {
    MultiGpuOptions o;
    o.overlap = overlap;
    o.faults.rebalance_batches = 3;

    gpusim::Runtime real_rt = mixed_node_runtime();
    MultiGpuBatchScorer real(real_rt, f.scorer, o);
    std::vector<double> out(poses.size());
    for (int b = 0; b < 8; ++b) real.evaluate(poses, out);

    gpusim::Runtime replay_rt = mixed_node_runtime();
    MultiGpuBatchScorer replay(replay_rt, f.scorer, o);
    for (int b = 0; b < 8; ++b) replay.evaluate_cost_only(poses.size());

    EXPECT_GT(real.fault_report().rebalances, 0u) << "overlap=" << overlap;
    EXPECT_EQ(replay.fault_report().rebalances, real.fault_report().rebalances)
        << "overlap=" << overlap;
    EXPECT_EQ(replay.current_shares(), real.current_shares()) << "overlap=" << overlap;
    EXPECT_DOUBLE_EQ(replay.node_seconds(), real.node_seconds()) << "overlap=" << overlap;
    EXPECT_EQ(replay.device_conformations(), real.device_conformations())
        << "overlap=" << overlap;
  }
}

TEST(Overlap, SavedSecondsCounterAndStreamTracksAreEmitted) {
  FragmentFixture f;
  obs::Observer observer;
  gpusim::Runtime rt(hertz().gpus);
  for (int d = 0; d < rt.device_count(); ++d) {
    rt.device(d).set_observer(&observer);
  }
  MultiGpuOptions o;
  o.observer = &observer;
  MultiGpuBatchScorer mgs(rt, f.scorer, o);
  for (int i = 0; i < 2; ++i) mgs.evaluate_cost_only(1 << 18);

  // The pipeline accounts what overlap saved vs the serial round...
  EXPECT_GT(observer.metrics.counter("sched.overlap.saved_seconds").value(), 0.0);
  // ...and the per-stream work lands on named "device.N.stream.S" tracks.
  const std::string json = observer.tracer.to_chrome_json();
  EXPECT_NE(json.find("device.0.stream.1"), std::string::npos);
  EXPECT_NE(json.find("device.0.stream.2"), std::string::npos);
}

TEST(Overlap, ExecutorEstimateImprovesWithOverlap) {
  // At paper scale the copies are a small slice of the round, but hiding
  // them must never cost time — and the het-vs-hom gap on hertz holds
  // with the pipeline on.
  const auto makespan = [](Strategy s, bool overlap) {
    ExecutorOptions o = overlap_options(overlap);
    o.strategy = s;
    NodeExecutor exec(hertz(), o);
    return exec.estimate(testing::paper_problem(), meta::m1_genetic()).makespan_seconds;
  };
  const double het_on = makespan(Strategy::kHeterogeneous, true);
  const double het_off = makespan(Strategy::kHeterogeneous, false);
  const double hom_on = makespan(Strategy::kHomogeneous, true);
  const double hom_off = makespan(Strategy::kHomogeneous, false);
  EXPECT_LT(het_on, het_off);
  EXPECT_LT(hom_on, hom_off);
  // The paper's het-vs-hom gap survives overlap — and widens: the Eq. 1
  // split keeps every pipeline saturated, so hiding the copies helps the
  // balanced run at least as much as the equal split.
  EXPECT_GT(hom_on / het_on, 1.3);
  EXPECT_GE(hom_on / het_on, hom_off / het_off);
}

}  // namespace
}  // namespace metadock::sched
