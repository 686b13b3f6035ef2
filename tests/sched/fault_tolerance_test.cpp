// Fault-tolerance of the batch scorer and node executor under seeded
// gpusim::FaultPlan schedules: every injected fault is either retried,
// re-split around, or degraded past — the science must be bit-identical to
// a fault-free run, and the FaultReport must account for every fault.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "gpusim/device_db.h"
#include "gpusim/fault_plan.h"
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

struct Fixture {
  mol::Molecule receptor;
  mol::Molecule ligand;
  scoring::LennardJonesScorer scorer;

  Fixture()
      : receptor([] {
          mol::ReceptorParams p;
          p.atom_count = 180;
          return mol::make_receptor(p);
        }()),
        ligand([] {
          mol::LigandParams p;
          p.atom_count = 11;
          return mol::make_ligand(p);
        }()),
        scorer(receptor, ligand) {}
};

std::vector<scoring::Pose> random_poses(std::size_t n, std::uint64_t seed = 3) {
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

meta::MetaheuristicParams tiny_params() {
  meta::MetaheuristicParams p = meta::m3_scatter_light();
  p.population_per_spot = 8;
  p.generations = 2;
  return p;
}

TEST(FaultTolerance, TransientFaultsAreRetriedAndScoresMatch) {
  Fixture f;
  const auto poses = random_poses(256);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  gpusim::FaultPlan plan(17);
  plan.transient(0, 0.4);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuOptions fault_opt;
  fault_opt.faults.max_retries = 8;  // deep enough that no slice exhausts it
  MultiGpuBatchScorer mgs(rt, f.scorer, fault_opt);
  std::vector<double> got(poses.size());
  // One kernel launch per device per batch: several batches give the seeded
  // 40% failure stream enough launches to fire.
  for (int batch = 0; batch < 10; ++batch) {
    mgs.evaluate(poses, got);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      ASSERT_DOUBLE_EQ(got[i], expected[i]) << "batch " << batch << " pose " << i;
    }
  }
  const FaultReport& r = mgs.fault_report();
  EXPECT_GT(r.transient_faults, 0u);
  EXPECT_EQ(r.devices_lost, 0u);
  // With no quarantine, every observed fault was answered by a retry.
  EXPECT_EQ(r.retries, r.transient_faults);
  EXPECT_GT(r.time_lost_seconds, 0.0);
}

TEST(FaultTolerance, MidRunDeathResplitsAcrossSurvivors) {
  Fixture f;
  const auto poses = random_poses(512);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  // Time a fault-free run of the same batch to place the death mid-slice.
  gpusim::Runtime clean = mixed_node_runtime();
  MultiGpuBatchScorer clean_mgs(clean, f.scorer, {});
  std::vector<double> clean_out(poses.size());
  clean_mgs.evaluate(poses, clean_out);
  const double mid = 0.5 * clean.device(0).busy_seconds();
  ASSERT_GT(mid, 0.0);

  gpusim::FaultPlan plan;
  plan.kill(0, mid);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  std::vector<double> got(poses.size());
  mgs.evaluate(poses, got);

  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]) << "pose " << i;
  }
  const FaultReport& r = mgs.fault_report();
  EXPECT_EQ(r.devices_lost, 1u);
  ASSERT_EQ(r.lost_devices.size(), 1u);
  EXPECT_EQ(r.lost_devices[0], 0);
  EXPECT_GE(r.resplits, 1u);
  EXPECT_TRUE(mgs.quarantined(0));
  // The survivor absorbed the dead device's slice: nothing was dropped.
  const auto& confs = mgs.device_conformations();
  EXPECT_EQ(std::accumulate(confs.begin(), confs.end(), std::size_t{0}), poses.size());
}

TEST(FaultTolerance, AllDevicesLostWithoutFallbackThrows) {
  Fixture f;
  gpusim::FaultPlan plan;
  plan.kill(0, 0.0).kill(1, 0.0);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  EXPECT_THROW(mgs.evaluate_cost_only(64), gpusim::AllDevicesLostError);
}

TEST(FaultTolerance, NoScoreEscapesABatchThatLostEveryDevice) {
  // Both devices die inside the first batch.  The dispatch runs before the
  // host pass, so without a CPU fallback the batch throws before any score
  // is written or any host scoring is recorded.
  Fixture f;
  gpusim::FaultPlan plan;
  plan.kill(0, 1e-7).kill(1, 1e-7);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  obs::Observer observer;
  rt.attach_observer(&observer);
  MultiGpuBatchScorer mgs(rt, f.scorer, {});
  ASSERT_FALSE(mgs.quarantined(0));  // alive at construction, lost mid-batch
  const auto poses = random_poses(64);
  std::vector<double> out(poses.size(), -1.0);
  EXPECT_THROW(mgs.evaluate(poses, out), gpusim::AllDevicesLostError);
  for (const double e : out) EXPECT_EQ(e, -1.0);
  EXPECT_EQ(observer.metrics.counter("host.scored_pairs").value(), 0.0);
}

TEST(FaultTolerance, AllDevicesLostDegradesToCpu) {
  Fixture f;
  const auto poses = random_poses(96);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  gpusim::FaultPlan plan;
  plan.kill(0, 0.0).kill(1, 0.0);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuOptions opt;
  opt.cpu_fallback = hertz().cpu;
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  std::vector<double> got(poses.size());
  mgs.evaluate(poses, got);

  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]) << "pose " << i;
  }
  const FaultReport& r = mgs.fault_report();
  EXPECT_TRUE(r.degraded_to_cpu);
  EXPECT_EQ(r.devices_lost, 2u);
  EXPECT_EQ(r.cpu_fallback_conformations, poses.size());
  EXPECT_GT(mgs.node_seconds(), 0.0);  // CPU time is accounted on the node
}

TEST(FaultTolerance, CpuEnginesRunTheKernelSimdLevel) {
  // The CPU tail and the all-devices-dead fallback must score with the
  // level the kernel options pin, bit for bit: moving work to the host may
  // not swap the kernel under the science.
  Fixture f;
  const auto poses = random_poses(128);
  for (const scoring::SimdLevel level :
       {scoring::SimdLevel::kScalar, scoring::default_simd_level()}) {
    SCOPED_TRACE(std::string(scoring::simd_level_name(level)));
    scoring::BatchEngineOptions be;
    be.simd = level;
    std::vector<double> expected(poses.size());
    scoring::BatchScoringEngine(f.scorer, be).score_batch(poses, expected);

    MultiGpuOptions opt;
    opt.kernel.simd_level = level;
    opt.cpu_fallback = hertz().cpu;
    const auto score_all = [&](const gpusim::FaultPlan& plan, double tail_share) {
      gpusim::Runtime rt = mixed_node_runtime(plan);
      MultiGpuOptions o = opt;
      o.cpu_tail_share = tail_share;
      MultiGpuBatchScorer mgs(rt, f.scorer, o);
      std::vector<double> got(poses.size());
      mgs.evaluate(poses, got);
      EXPECT_TRUE(mgs.cpu_tail_conformations() > 0 || mgs.fault_report().degraded_to_cpu);
      return got;
    };
    gpusim::FaultPlan all_dead;
    all_dead.kill(0, 0.0).kill(1, 0.0);
    const std::vector<double> tail = score_all({}, 0.5);
    const std::vector<double> fallback = score_all(all_dead, 0.0);
    for (std::size_t i = 0; i < poses.size(); ++i) {
      EXPECT_EQ(tail[i], expected[i]) << "tail pose " << i;
      EXPECT_EQ(fallback[i], expected[i]) << "fallback pose " << i;
    }
  }
}

TEST(FaultTolerance, CountersMatchThePlanExactly) {
  // p = 1 on device 0 with max_retries = 2: the first slice fails the
  // initial attempt plus both retries (3 transients, 2 retries), the device
  // is quarantined, and its slice is re-split onto device 1 (1 re-split).
  Fixture f;
  gpusim::FaultPlan plan(5);
  plan.transient(0, 1.0);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuOptions opt;
  opt.faults.max_retries = 2;
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  mgs.evaluate_cost_only(256);

  const FaultReport& r = mgs.fault_report();
  EXPECT_EQ(r.transient_faults, 3u);
  EXPECT_EQ(r.retries, 2u);
  EXPECT_EQ(r.devices_lost, 1u);
  EXPECT_EQ(r.resplits, 1u);
  EXPECT_TRUE(mgs.quarantined(0));
  EXPECT_FALSE(mgs.quarantined(1));
  // Device-side injection count agrees with the scheduler's observation.
  EXPECT_EQ(rt.device(0).transient_faults_injected(), r.transient_faults);
  const auto& confs = mgs.device_conformations();
  EXPECT_EQ(confs[0], 0u);
  EXPECT_EQ(confs[1], 256u);
}

TEST(FaultTolerance, StragglerRebalanceShiftsShares) {
  // Two identical cards, one throttled x4 from the start: the periodic
  // observed-throughput rebalance demotes the straggler's share.
  Fixture f;
  gpusim::FaultPlan plan;
  plan.straggle(0, 0.0, 4.0);
  gpusim::Runtime rt(
      {gpusim::geforce_gtx580(), gpusim::geforce_gtx580()}, plan);
  MultiGpuOptions opt;
  opt.faults.rebalance_batches = 2;
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  for (int i = 0; i < 6; ++i) mgs.evaluate_cost_only(2048);

  EXPECT_GE(mgs.fault_report().rebalances, 1u);
  const std::vector<double>& shares = mgs.current_shares();
  EXPECT_LT(shares[0], 0.35);  // x4 slowdown -> ~1/5 of the throughput
  EXPECT_GT(shares[1], 0.65);
  // Later batches give the healthy card most of the work.
  const auto& confs = mgs.device_conformations();
  EXPECT_GT(confs[1], confs[0]);
}

TEST(FaultTolerance, DynamicModeRoutesAroundDeath) {
  Fixture f;
  const auto poses = random_poses(300);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);

  gpusim::Runtime clean = mixed_node_runtime();
  MultiGpuOptions opt;
  opt.dynamic = true;
  opt.chunk_blocks = 2;
  {
    MultiGpuBatchScorer clean_mgs(clean, f.scorer, opt);
    std::vector<double> out(poses.size());
    clean_mgs.evaluate(poses, out);
  }
  const double mid = 0.5 * clean.device(0).busy_seconds();

  gpusim::FaultPlan plan;
  plan.kill(0, mid);
  gpusim::Runtime rt = mixed_node_runtime(plan);
  MultiGpuBatchScorer mgs(rt, f.scorer, opt);
  std::vector<double> got(poses.size());
  mgs.evaluate(poses, got);

  for (std::size_t i = 0; i < poses.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], expected[i]) << "pose " << i;
  }
  EXPECT_EQ(mgs.fault_report().devices_lost, 1u);
  const auto& confs = mgs.device_conformations();
  EXPECT_EQ(std::accumulate(confs.begin(), confs.end(), std::size_t{0}), poses.size());
}

TEST(FaultTolerance, ExecutorSurvivesWarmupDeath) {
  // Device 0 dead before the warm-up: Eq. 1 runs over the survivor only and
  // the whole docking still completes with fault-free science.
  ExecutorOptions clean_opt;
  clean_opt.strategy = Strategy::kHeterogeneous;
  NodeExecutor clean(hertz(), clean_opt);
  const ExecutionReport ref = clean.run(tiny_problem(), tiny_params());

  ExecutorOptions opt = clean_opt;
  opt.fault_plan.kill(0, 0.0);
  NodeExecutor exec(hertz(), opt);
  const ExecutionReport r = exec.run(tiny_problem(), tiny_params());

  ASSERT_EQ(r.result.spot_results.size(), ref.result.spot_results.size());
  for (std::size_t i = 0; i < r.result.spot_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.result.spot_results[i].best.score,
                     ref.result.spot_results[i].best.score)
        << "spot " << i;
  }
  EXPECT_EQ(r.faults.devices_lost, 1u);
  ASSERT_EQ(r.faults.lost_devices.size(), 1u);
  EXPECT_EQ(r.faults.lost_devices[0], 0);
  EXPECT_EQ(r.devices[0].conformations, 0u);
  EXPECT_GT(r.devices[1].conformations, 0u);
  EXPECT_FALSE(ref.faults.any());  // the clean run reports a clean bill
}

// The acceptance scenario: a four-GPU node loses one card mid-run.  The
// screening completes, best energies are identical to the fault-free run,
// the survivors absorb the lost share, and the report accounts for the
// death.
TEST(FaultTolerance, FourGpuNodeSurvivesMidRunDeathWithIdenticalScience) {
  NodeConfig node = jupiter_homogeneous();  // 4x GTX 590 dies
  ASSERT_EQ(node.gpu_count(), 4);

  for (const Strategy strategy :
       {Strategy::kHomogeneous, Strategy::kHeterogeneous, Strategy::kCooperative}) {
    ExecutorOptions clean_opt;
    clean_opt.strategy = strategy;
    NodeExecutor clean(node, clean_opt);
    const ExecutionReport ref = clean.run(tiny_problem(), tiny_params());
    // Midway between the end of the warm-up (if any) and the device's last
    // work — strictly a mid-scoring death, never a warm-up death.
    const double mid = 0.5 * (ref.warmup_seconds + ref.devices[1].busy_seconds);
    ASSERT_GT(mid, ref.warmup_seconds);

    ExecutorOptions opt = clean_opt;
    opt.fault_plan.kill(1, mid);
    NodeExecutor exec(node, opt);
    const ExecutionReport r = exec.run(tiny_problem(), tiny_params());

    // Identical best energy at every spot.
    ASSERT_EQ(r.result.spot_results.size(), ref.result.spot_results.size());
    for (std::size_t i = 0; i < r.result.spot_results.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.result.spot_results[i].best.score,
                       ref.result.spot_results[i].best.score)
          << strategy_name(strategy) << " spot " << i;
    }
    // Full fault accounting: exactly one quarantine, at least one re-split
    // (the in-flight slice moved to the survivors), no CPU degradation.
    EXPECT_EQ(r.faults.devices_lost, 1u) << strategy_name(strategy);
    ASSERT_EQ(r.faults.lost_devices.size(), 1u) << strategy_name(strategy);
    EXPECT_EQ(r.faults.lost_devices[0], 1) << strategy_name(strategy);
    EXPECT_GE(r.faults.resplits, 1u) << strategy_name(strategy);
    EXPECT_FALSE(r.faults.degraded_to_cpu) << strategy_name(strategy);
    // Nothing dropped: the four devices together scored every conformation
    // the fault-free run scored.
    auto total = [](const ExecutionReport& e) {
      std::size_t n = 0;
      for (const DeviceReport& d : e.devices) n += d.conformations;
      return n;
    };
    EXPECT_EQ(total(r), total(ref)) << strategy_name(strategy);
    // The survivors absorbed the lost share.  Under the static splits the
    // all-equal node re-splits into near-equal thirds; the cooperative
    // queue guarantees only that every survivor keeps pulling.
    std::vector<std::size_t> survivors;
    std::size_t survivor_sum = 0;
    std::size_t ref_survivor_sum = 0;
    for (std::size_t d = 0; d < r.devices.size(); ++d) {
      if (d == 1) continue;
      survivors.push_back(r.devices[d].conformations);
      survivor_sum += r.devices[d].conformations;
      ref_survivor_sum += ref.devices[d].conformations;
    }
    EXPECT_GT(survivor_sum, ref_survivor_sum) << strategy_name(strategy);
    if (strategy != Strategy::kCooperative) {
      const auto lo = *std::min_element(survivors.begin(), survivors.end());
      const auto hi = *std::max_element(survivors.begin(), survivors.end());
      EXPECT_LT(static_cast<double>(hi - lo), 0.25 * static_cast<double>(hi))
          << strategy_name(strategy);
    }
    for (std::size_t s : survivors) EXPECT_GT(s, 0u) << strategy_name(strategy);
    EXPECT_GT(r.devices[1].conformations, 0u) << strategy_name(strategy);
    EXPECT_LT(r.devices[1].conformations, ref.devices[1].conformations)
        << strategy_name(strategy);
  }
}

// Cross-strategy determinism harness: on the same problem, every strategy
// must reproduce the CPU reference spot-by-spot — fault-free AND with a
// device dying mid-run.
TEST(FaultTolerance, StrategiesAgreeWithCpuReferenceUnderFaults) {
  NodeExecutor cpu(hertz(), [] {
    ExecutorOptions o;
    o.strategy = Strategy::kCpu;
    return o;
  }());
  const ExecutionReport ref = cpu.run(tiny_problem(), tiny_params());
  std::map<int, double> reference;
  for (const auto& sr : ref.result.spot_results) reference[sr.spot_id] = sr.best.score;

  for (const Strategy strategy :
       {Strategy::kHomogeneous, Strategy::kHeterogeneous, Strategy::kCooperative}) {
    // Probe the fault-free run for a mid-run death time.
    ExecutorOptions clean_opt;
    clean_opt.strategy = strategy;
    NodeExecutor clean(hertz(), clean_opt);
    const ExecutionReport probe = clean.run(tiny_problem(), tiny_params());
    const double mid = 0.5 * probe.devices[0].busy_seconds;

    for (const bool faulty : {false, true}) {
      ExecutorOptions opt = clean_opt;
      if (faulty) {
        opt.fault_plan.set_seed(23).kill(0, mid).transient(1, 0.05);
      }
      NodeExecutor exec(hertz(), opt);
      const ExecutionReport r = exec.run(tiny_problem(), tiny_params());
      ASSERT_EQ(r.result.spot_results.size(), reference.size());
      for (const auto& sr : r.result.spot_results) {
        EXPECT_DOUBLE_EQ(sr.best.score, reference[sr.spot_id])
            << strategy_name(strategy) << (faulty ? " faulty" : " clean") << " spot "
            << sr.spot_id;
      }
      if (faulty) {
        EXPECT_EQ(r.faults.devices_lost, 1u) << strategy_name(strategy);
      } else {
        EXPECT_FALSE(r.faults.any()) << strategy_name(strategy);
      }
    }
  }
}

TEST(FaultTolerance, CooperativeResplitsMatchStaticSplits) {
  // FaultReport::resplits counts slices re-split across survivors: a
  // returned slice counts (with one `resplit` mark) when a survivor takes
  // it, never when it falls through to the CPU.  Both worklist modes must
  // agree on the same deaths.
  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 8;
  params.generations = 2;
  gpusim::FaultPlan first_dies;
  first_dies.kill(0, 60e-6);
  gpusim::FaultPlan both_die = first_dies;
  both_die.kill(1, 110e-6);
  for (const gpusim::FaultPlan& plan : {first_dies, both_die}) {
    std::vector<std::uint64_t> resplits;
    for (const Strategy strategy : {Strategy::kHomogeneous, Strategy::kCooperative}) {
      obs::Observer observer;
      ExecutorOptions o;
      o.strategy = strategy;
      o.overlap = false;
      o.fault_plan = plan;
      o.observer = &observer;
      NodeExecutor exec(hertz(), o);
      const ExecutionReport r = exec.run(tiny_problem(), params);
      std::uint64_t marks = 0;
      for (const obs::Span& s : observer.tracer.spans()) marks += s.name == "resplit" ? 1 : 0;
      EXPECT_EQ(marks, r.faults.resplits) << strategy_name(strategy);
      EXPECT_DOUBLE_EQ(observer.metrics.counter("sched.resplits").value(),
                       static_cast<double>(r.faults.resplits))
          << strategy_name(strategy);
      resplits.push_back(r.faults.resplits);
    }
    EXPECT_EQ(resplits[0], 1u);
    EXPECT_EQ(resplits[1], resplits[0]);
  }
}

TEST(FaultTolerance, BadFaultPolicyThrows) {
  ExecutorOptions o;
  o.fault_policy.max_retries = -1;
  EXPECT_THROW(NodeExecutor(hertz(), o), std::invalid_argument);
}

void expect_same_faults(const FaultReport& a, const FaultReport& b) {
  EXPECT_EQ(a.transient_faults, b.transient_faults);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.devices_lost, b.devices_lost);
  EXPECT_EQ(a.resplits, b.resplits);
  EXPECT_EQ(a.rebalances, b.rebalances);
  EXPECT_EQ(a.cpu_fallback_conformations, b.cpu_fallback_conformations);
  EXPECT_EQ(a.degraded_to_cpu, b.degraded_to_cpu);
  EXPECT_EQ(a.time_lost_seconds, b.time_lost_seconds);
  EXPECT_EQ(a.lost_devices, b.lost_devices);
}

TEST(FaultTolerance, EvaluateAndCostOnlyLeaveTheSameTimelineInEveryScenario) {
  // A real batch is its cost-only dispatch plus one host pass, so under
  // every fault scenario of dispatch.golden the two must leave the same
  // clocks, work split and fault report, and the real batch must score
  // exactly what a fault-free one does.
  Fixture f;
  const auto poses = random_poses(512);
  std::vector<double> expected(poses.size());
  scoring::BatchScoringEngine(f.scorer).score_batch(poses, expected);
  struct Mode {
    const char* name;
    bool dynamic;
    bool overlap;
    double cpu_tail_share;
  };
  const Mode modes[] = {{"static+overlap", false, true, 0.0},
                        {"static", false, false, 0.0},
                        {"coop+overlap", true, true, 0.0},
                        {"coop", true, false, 0.0},
                        {"static+overlap+cpu-tail", false, true, 0.25}};
  struct After {
    double node_s = 0.0;
    double cpu_j = 0.0;
    std::vector<double> busy_s;
    std::vector<std::size_t> confs;
    std::size_t cpu_tail = 0;
    FaultReport faults;
  };
  for (const Mode& mode : modes) {
    const auto run = [&](const testing::FaultCase& c, std::vector<double>* scores) {
      gpusim::Runtime rt = mixed_node_runtime(c.plan);
      MultiGpuOptions o;
      o.dynamic = mode.dynamic;
      o.overlap = mode.overlap;
      o.cpu_tail_share = mode.cpu_tail_share;
      o.cpu_fallback = hertz().cpu;
      o.faults.rebalance_batches = c.rebalance_batches;
      MultiGpuBatchScorer mgs(rt, f.scorer, o);
      for (int batch = 0; batch < 4; ++batch) {
        if (scores != nullptr) {
          std::fill(scores->begin(), scores->end(), 0.0);
          mgs.evaluate(poses, *scores);
        } else {
          mgs.evaluate_cost_only(poses.size());
        }
      }
      After a;
      a.node_s = mgs.node_seconds();
      a.cpu_j = mgs.cpu_energy_joules();
      for (int d = 0; d < rt.device_count(); ++d) a.busy_s.push_back(rt.device(d).busy_seconds());
      a.confs = mgs.device_conformations();
      a.cpu_tail = mgs.cpu_tail_conformations();
      a.faults = mgs.fault_report();
      return a;
    };
    const After clean = run({"none", {}}, nullptr);
    const auto mid_s = [&clean](int d) { return 0.5 * clean.busy_s[static_cast<std::size_t>(d)]; };
    for (const testing::FaultCase& c : testing::dispatch_fault_cases(2, mid_s)) {
      SCOPED_TRACE(std::string(mode.name) + " " + c.name);
      std::vector<double> scores(poses.size());
      const After real = run(c, &scores);
      const After replay = run(c, nullptr);
      EXPECT_EQ(real.node_s, replay.node_s);
      EXPECT_EQ(real.cpu_j, replay.cpu_j);
      EXPECT_EQ(real.busy_s, replay.busy_s);
      EXPECT_EQ(real.confs, replay.confs);
      EXPECT_EQ(real.cpu_tail, replay.cpu_tail);
      expect_same_faults(real.faults, replay.faults);
      EXPECT_EQ(scores, expected);
    }
  }
}

}  // namespace
}  // namespace metadock::sched
