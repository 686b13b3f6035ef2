// End-to-end observability: the tracer/metrics pipeline threaded through
// NodeExecutor -> MultiGpuBatchScorer -> gpusim::Device, on the hertz-like
// unequal 2-GPU node where load balance actually matters.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "sched/executor.h"
#include "testing/fixtures.h"

namespace metadock::sched {
namespace {

using testing::paper_problem;
using testing::tiny_problem;

meta::MetaheuristicParams tiny_params() {
  meta::MetaheuristicParams p = meta::m3_scatter_light();
  p.population_per_spot = 8;
  p.generations = 2;
  return p;
}

ExecutorOptions with(Strategy s, obs::Observer* observer = nullptr) {
  ExecutorOptions o;
  o.strategy = s;
  o.observer = observer;
  return o;
}

std::size_t count_spans(const obs::Observer& observer, const std::string& name, int device) {
  std::size_t n = 0;
  for (const obs::Span& s : observer.tracer.spans()) {
    if (s.name == name && s.device == device) ++n;
  }
  return n;
}

/// Spans named `name` on any track (device and stream tracks alike).
std::size_t count_spans(const obs::Observer& observer, const std::string& name) {
  std::size_t n = 0;
  for (const obs::Span& s : observer.tracer.spans()) n += s.name == name ? 1 : 0;
  return n;
}

TEST(Observability, HetWarmupSplitReducesImbalanceVsEqualPartition) {
  // The whole point of Eq. 1: on Kepler + Fermi, the equal split leaves the
  // fast card idling at every barrier while the heterogeneous split has
  // both finish together.  The imbalance ratio must show exactly that.
  NodeExecutor hom(hertz(), with(Strategy::kHomogeneous));
  NodeExecutor het(hertz(), with(Strategy::kHeterogeneous));
  const ExecutionReport r_hom = hom.estimate(paper_problem(), meta::m1_genetic());
  const ExecutionReport r_het = het.estimate(paper_problem(), meta::m1_genetic());

  EXPECT_GT(r_hom.imbalance_ratio, 1.5);  // equal split on ~2x-unequal cards
  EXPECT_LT(r_het.imbalance_ratio, 1.1);  // warm-up split nearly equalizes
  EXPECT_LT(r_het.imbalance_ratio, r_hom.imbalance_ratio);
  EXPECT_GT(r_het.balance_efficiency, r_hom.balance_efficiency);
  EXPECT_LE(r_het.balance_efficiency, 1.0 + 1e-12);

  // Per-device: under hom both cards score the same count but the slow one
  // works longer; busy_ratio is 1.0 for the slowest device by definition.
  for (const ExecutionReport& r : {r_hom, r_het}) {
    ASSERT_EQ(r.devices.size(), 2u);
    const double max_ratio = std::max(r.devices[0].busy_ratio, r.devices[1].busy_ratio);
    EXPECT_DOUBLE_EQ(max_ratio, 1.0);
    for (const DeviceReport& d : r.devices) {
      EXPECT_GT(d.scoring_seconds, 0.0);
      EXPECT_LE(d.scoring_seconds, d.busy_seconds);
    }
  }
}

TEST(Observability, TracerSeesEveryPipelineStageOnBothDevices) {
  obs::Observer observer;
  NodeExecutor exec(hertz(), with(Strategy::kHeterogeneous, &observer));
  const ExecutionReport r = exec.run(tiny_problem(), tiny_params());
  ASSERT_GT(r.makespan_seconds, 0.0);

  // Both GPUs ran warm-up and scoring kernels on their own tracks.
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(count_spans(observer, "warmup", d), 1u) << "device " << d;
    EXPECT_GT(count_spans(observer, "kernel", d), 0u) << "device " << d;
    EXPECT_GT(count_spans(observer, "h2d", d), 0u) << "device " << d;
    EXPECT_GT(count_spans(observer, "d2h", d), 0u) << "device " << d;
  }
  // Host track: one span per metaheuristic generation per spot, plus the
  // per-batch barrier spans from the scheduler.
  EXPECT_GT(count_spans(observer, "generation", obs::kHostTrack), 0u);
  EXPECT_GT(count_spans(observer, "batch", obs::kHostTrack), 0u);

  // Kernel spans carry the launch geometry and achieved-rate args.
  bool saw_kernel_args = false;
  for (const obs::Span& s : observer.tracer.spans()) {
    if (s.name != "kernel") continue;
    std::vector<std::string> keys;
    keys.reserve(s.args.size());
    for (const auto& [k, v] : s.args) keys.push_back(k);
    saw_kernel_args = std::find(keys.begin(), keys.end(), "gflops") != keys.end() &&
                      std::find(keys.begin(), keys.end(), "blocks") != keys.end();
    break;
  }
  EXPECT_TRUE(saw_kernel_args);

  // The Chrome export of a real run is non-trivial and names both tracks.
  const std::string json = observer.tracer.to_chrome_json();
  EXPECT_NE(json.find("Tesla K40c"), std::string::npos);
  EXPECT_NE(json.find("GTX 580"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(Observability, MetricsMirrorTheExecutionReport) {
  obs::Observer observer;
  NodeExecutor exec(hertz(), with(Strategy::kHeterogeneous, &observer));
  const ExecutionReport r = exec.run(tiny_problem(), tiny_params());

  obs::MetricsRegistry& m = observer.metrics;
  EXPECT_DOUBLE_EQ(m.gauge("node.imbalance_ratio").value(), r.imbalance_ratio);
  EXPECT_DOUBLE_EQ(m.gauge("node.balance_efficiency").value(), r.balance_efficiency);
  EXPECT_DOUBLE_EQ(m.gauge("node.makespan_seconds").value(), r.makespan_seconds);
  for (std::size_t d = 0; d < r.devices.size(); ++d) {
    const std::string prefix = "device." + std::to_string(d) + ".";
    EXPECT_DOUBLE_EQ(m.gauge(prefix + "poses_scored").value(),
                     static_cast<double>(r.devices[d].conformations));
    EXPECT_DOUBLE_EQ(m.gauge(prefix + "busy_seconds").value(), r.devices[d].busy_seconds);
    EXPECT_GT(m.counter(prefix + "kernels").value(), 0.0);
    EXPECT_GT(m.counter(prefix + "flops").value(), 0.0);
    EXPECT_GT(m.histogram(prefix + "achieved_gflops").count(), 0u);
  }
  EXPECT_GT(m.counter("sched.batches").value(), 0.0);
  EXPECT_GT(m.counter("meta.evaluations").value(), 0.0);
  EXPECT_GT(m.histogram("sched.batch_barrier_seconds").count(), 0u);
}

TEST(Observability, FaultEventsLandInTraceAndMetrics) {
  // Every retry lands in sched.retries and as a retry_backoff span, the
  // heterogeneous warm-up's retries included.  Seed 2 fires transients on
  // device 1 in both runs (het: 2 of its retries happen in the warm-up).
  meta::MetaheuristicParams params = meta::m1_genetic();
  params.population_per_spot = 8;
  params.generations = 2;
  for (const Strategy s : {Strategy::kHomogeneous, Strategy::kHeterogeneous}) {
    obs::Observer observer;
    ExecutorOptions o = with(s, &observer);
    o.fault_plan.set_seed(2).transient(1, 0.2);
    NodeExecutor exec(hertz(), o);
    const ExecutionReport r = exec.run(tiny_problem(), params);

    ASSERT_GT(r.faults.transient_faults, 0u) << strategy_name(s);
    ASSERT_GT(r.faults.retries, 0u) << strategy_name(s);
    EXPECT_DOUBLE_EQ(observer.metrics.counter("device.1.transient_faults").value(),
                     static_cast<double>(r.faults.transient_faults))
        << strategy_name(s);
    EXPECT_EQ(count_spans(observer, "kernel(transient)"), r.faults.transient_faults)
        << strategy_name(s);
    EXPECT_DOUBLE_EQ(observer.metrics.counter("sched.retries").value(),
                     static_cast<double>(r.faults.retries))
        << strategy_name(s);
    EXPECT_EQ(count_spans(observer, "retry_backoff"), r.faults.retries) << strategy_name(s);
  }
}

TEST(Observability, NullObserverChangesNothing) {
  // Observability off must be bit-identical science and timing.
  obs::Observer observer;
  NodeExecutor with_obs(hertz(), with(Strategy::kHeterogeneous, &observer));
  NodeExecutor without(hertz(), with(Strategy::kHeterogeneous));
  const ExecutionReport a = with_obs.run(tiny_problem(), tiny_params());
  const ExecutionReport b = without.run(tiny_problem(), tiny_params());
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_DOUBLE_EQ(a.imbalance_ratio, b.imbalance_ratio);
  ASSERT_EQ(a.result.spot_results.size(), b.result.spot_results.size());
  for (std::size_t i = 0; i < a.result.spot_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.result.spot_results[i].best.score, b.result.spot_results[i].best.score);
  }
}

}  // namespace
}  // namespace metadock::sched
