#include "sched/executor.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "meta/trace.h"
#include "sched/evaluators.h"
#include "sched/partition.h"

namespace metadock::sched {
namespace {

/// Per-device busy_seconds snapshot — the scoring-phase origin.
std::vector<double> busy_baseline(const gpusim::Runtime& rt) {
  std::vector<double> base(static_cast<std::size_t>(rt.device_count()), 0.0);
  for (int d = 0; d < rt.device_count(); ++d) {
    base[static_cast<std::size_t>(d)] = rt.device(d).busy_seconds();
  }
  return base;
}

/// Trace replay without numerics: the CPU model prices the whole workload
/// at once, the GPU node takes the whole batch schedule in one call.
void replay(CpuModelEvaluator& cpu, const meta::WorkloadTrace& trace, std::size_t n_spots) {
  cpu.engine().score_cost_only(trace.evals_per_spot() * n_spots);
}

void replay(MultiGpuBatchScorer& mgs, const meta::WorkloadTrace& trace, std::size_t n_spots) {
  mgs.evaluate_cost_only(trace.per_spot_batches, n_spots);
}

/// The CPU node of a real run: the CPU model and the host pass.
CpuModelEvaluator cpu_node(const NodeConfig& node, const ExecutorOptions& o,
                           const scoring::LennardJonesScorer& scorer) {
  return {node.cpu, scorer, o.kernel.impl, o.observer, o.kernel.simd_level};
}

/// The CPU node of a cost-only estimate: the CPU model alone.
CpuModelEvaluator cpu_node(const NodeConfig& node, const ExecutorOptions&,
                           scoring::AtomCounts atoms) {
  return {node.cpu, atoms};
}

}  // namespace

std::string_view strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kCpu:
      return "OpenMP-CPU";
    case Strategy::kHomogeneous:
      return "homogeneous";
    case Strategy::kHeterogeneous:
      return "heterogeneous";
    case Strategy::kCooperative:
      return "cooperative";
  }
  return "?";
}

NodeExecutor::NodeExecutor(NodeConfig node, ExecutorOptions options)
    : node_(std::move(node)), options_(options) {
  if (options_.strategy != Strategy::kCpu && node_.gpus.empty()) {
    throw std::invalid_argument("NodeExecutor: GPU strategy on a node without GPUs");
  }
  if (options_.warmup_iterations <= 0 || options_.warmup_batch == 0) {
    throw std::invalid_argument("NodeExecutor: warm-up configuration must be positive");
  }
  if (options_.chunk_blocks == 0) {
    throw std::invalid_argument("NodeExecutor: chunk_blocks must be positive");
  }
  if (options_.fault_policy.max_retries < 0) {
    throw std::invalid_argument("NodeExecutor: bad fault policy");
  }
  if (options_.cpu_tail_share < 0.0 || options_.cpu_tail_share >= 1.0) {
    throw std::invalid_argument("NodeExecutor: cpu_tail_share must be in [0, 1)");
  }
}

NodeExecutor::WarmupResult NodeExecutor::warmup(gpusim::Runtime& rt,
                                                scoring::AtomCounts atoms) const {
  const auto n_dev = static_cast<std::size_t>(rt.device_count());
  WarmupResult w;
  w.times.assign(n_dev, 0.0);
  w.percents.assign(n_dev, 0.0);
  w.shares.assign(n_dev, 0.0);

  auto lose = [&w](int d) {
    ++w.faults.devices_lost;
    w.faults.lost_devices.push_back(d);
  };

  for (int d = 0; d < rt.device_count(); ++d) {
    gpusim::Device& dev = rt.device(d);
    if (dev.is_dead()) {
      lose(d);
      continue;
    }
    const double before = dev.busy_seconds();
    bool alive = true;
    {
      // Throwaway kernel instance: the warm-up "is not trying to solve the
      // docking problem in any meaningful sense" — it only probes speed.
      // Transient failures are retried (and lengthen the measured time, as
      // they would on real flaky hardware); a death or retry exhaustion
      // gives the device share 0.
      gpusim::DeviceScoringKernel probe(dev, atoms, options_.kernel);
      double start = 0.0;
      try {
        for (int it = 0; it < options_.warmup_iterations && alive; ++it) {
          alive = retry_transients(dev, gpusim::Device::kDefaultStream, options_.fault_policy,
                                   options_.observer, w.faults, start,
                                   [&] { probe.score_cost_only(options_.warmup_batch); });
        }
      } catch (const gpusim::DeviceLostError&) {
        w.faults.time_lost_seconds += dev.busy_seconds() - start;
        alive = false;
      }
    }
    if (!alive) {
      lose(d);
      continue;
    }
    w.times[static_cast<std::size_t>(d)] = dev.busy_seconds() - before;
    if (options_.observer != nullptr) {
      obs::Span span;
      span.name = "warmup";
      span.category = "warmup";
      span.device = d;
      span.start_ns = static_cast<std::uint64_t>(before * 1e9);
      span.dur_ns = static_cast<std::uint64_t>(w.times[static_cast<std::size_t>(d)] * 1e9);
      span.args.emplace_back("iterations", static_cast<double>(options_.warmup_iterations));
      options_.observer->tracer.record(span);
    }
  }

  // Eq. 1 over the surviving devices; the lost ones keep the 0 sentinel.
  std::vector<double> live_times;
  for (const double t : w.times) {
    if (t > 0.0) live_times.push_back(t);
  }
  if (live_times.empty()) return w;
  const std::vector<double> percents = percents_from_times(live_times);
  const std::vector<double> shares = shares_from_percents(percents);
  for (std::size_t d = 0, live = 0; d < n_dev; ++d) {
    if (w.times[d] <= 0.0) continue;
    w.percents[d] = percents[live];
    w.shares[d] = shares[live];
    ++live;
  }
  return w;
}

MultiGpuOptions NodeExecutor::multi_gpu_options(const WarmupResult& w) const {
  MultiGpuOptions mg;
  mg.kernel = options_.kernel;
  mg.faults = options_.fault_policy;
  mg.observer = options_.observer;
  mg.overlap = options_.overlap;
  mg.cpu_tail_share = options_.cpu_tail_share;
  // The node's CPU is always the last line of defense: if every GPU dies,
  // the run degrades to the kCpu scoring path instead of aborting.
  mg.cpu_fallback = node_.cpu;
  switch (options_.strategy) {
    case Strategy::kHomogeneous:
      mg.shares.assign(node_.gpus.size(), 1.0);
      break;
    case Strategy::kHeterogeneous:
      mg.shares = w.shares;
      break;
    case Strategy::kCooperative:
      mg.dynamic = true;
      mg.chunk_blocks = options_.chunk_blocks;
      break;
    case Strategy::kCpu:
      throw std::logic_error("multi_gpu_options: CPU strategy has no GPU splitter");
  }
  return mg;
}

void NodeExecutor::fill_report(ExecutionReport& report, const gpusim::Runtime& rt,
                               const MultiGpuBatchScorer& scorer, const WarmupResult& w,
                               const std::vector<double>& scoring_base) const {
  const std::vector<std::size_t>& confs = scorer.device_conformations();
  const auto total = static_cast<double>(
      std::accumulate(confs.begin(), confs.end(), std::size_t{0}));
  for (int d = 0; d < rt.device_count(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    const gpusim::Device& dev = rt.device(d);
    DeviceReport dr;
    dr.name = dev.spec().name;
    dr.conformations = confs[i];
    dr.share = total > 0.0 ? static_cast<double>(dr.conformations) / total : 0.0;
    dr.percent = w.percents.empty() ? 1.0 : w.percents[i];
    dr.busy_seconds = dev.busy_seconds();
    dr.scoring_seconds =
        dr.busy_seconds - (i < scoring_base.size() ? scoring_base[i] : 0.0);
    dr.energy_joules = dev.energy_joules();
    dr.kernels = dev.kernels_launched();
    dr.bytes_transferred = dev.bytes_transferred();
    report.devices.push_back(dr);
  }
  report.cpu_tail_conformations = scorer.cpu_tail_conformations();

  // Scoring-phase balance over the devices that actually scored work: a
  // quarantined or share-0 device waits at no barrier, so it must not drag
  // the ratio to infinity.
  double t_min = 0.0, t_max = 0.0, t_sum = 0.0;
  std::size_t participants = 0;
  for (const DeviceReport& dr : report.devices) {
    if (dr.conformations == 0 || dr.scoring_seconds <= 0.0) continue;
    t_min = participants == 0 ? dr.scoring_seconds : std::min(t_min, dr.scoring_seconds);
    t_max = std::max(t_max, dr.scoring_seconds);
    t_sum += dr.scoring_seconds;
    ++participants;
  }
  if (participants >= 2 && t_min > 0.0) {
    report.imbalance_ratio = t_max / t_min;
    report.balance_efficiency = (t_sum / static_cast<double>(participants)) / t_max;
  }
  for (DeviceReport& dr : report.devices) {
    dr.busy_ratio = t_max > 0.0 ? dr.scoring_seconds / t_max : 0.0;
  }

  report.makespan_seconds = report.warmup_seconds + scorer.node_seconds();
  report.energy_joules = rt.total_energy_joules() + scorer.cpu_energy_joules();
  report.faults = w.faults;
  report.faults.merge(scorer.fault_report());

  if (options_.observer != nullptr) {
    obs::MetricsRegistry& m = options_.observer->metrics;
    m.gauge("node.makespan_seconds").set(report.makespan_seconds);
    m.gauge("node.warmup_seconds").set(report.warmup_seconds);
    m.gauge("node.energy_joules").set(report.energy_joules);
    m.gauge("node.imbalance_ratio").set(report.imbalance_ratio);
    m.gauge("node.balance_efficiency").set(report.balance_efficiency);
    for (std::size_t d = 0; d < report.devices.size(); ++d) {
      const DeviceReport& dr = report.devices[d];
      const std::string prefix = "device." + std::to_string(d) + ".";
      m.gauge(prefix + "poses_scored").set(static_cast<double>(dr.conformations));
      m.gauge(prefix + "busy_seconds").set(dr.busy_seconds);
      m.gauge(prefix + "scoring_seconds").set(dr.scoring_seconds);
      m.gauge(prefix + "busy_ratio").set(dr.busy_ratio);
      m.gauge(prefix + "share").set(dr.share);
    }
  }
}

template <typename Scoring, typename Driver>
ExecutionReport NodeExecutor::execute(const meta::DockingProblem& problem, const Scoring& scoring,
                                      Driver&& drive) {
  ExecutionReport report;
  report.node = node_.name;
  report.strategy = options_.strategy;

  if (options_.strategy == Strategy::kCpu) {
    CpuModelEvaluator eval = cpu_node(node_, options_, scoring);
    DeviceReport dr;
    dr.name = node_.cpu.name;
    dr.conformations = drive(eval, report);
    dr.share = 1.0;
    dr.busy_seconds = eval.engine().busy_seconds();
    dr.energy_joules = eval.engine().energy_joules();
    report.devices.push_back(dr);
    report.makespan_seconds = dr.busy_seconds;
    report.energy_joules = dr.energy_joules;
    return report;
  }

  gpusim::Runtime rt(node_.gpus, options_.fault_plan);
  rt.attach_observer(options_.observer);
  WarmupResult w;
  if (options_.strategy == Strategy::kHeterogeneous) {
    w = warmup(rt, scoring::AtomCounts::of(*problem.receptor, *problem.ligand));
    report.warmup_seconds = *std::max_element(w.times.begin(), w.times.end());
  }

  const std::vector<double> scoring_base = busy_baseline(rt);
  MultiGpuBatchScorer mgs(rt, scoring, multi_gpu_options(w));
  drive(mgs, report);
  fill_report(report, rt, mgs, w, scoring_base);
  return report;
}

ExecutionReport NodeExecutor::run(const meta::DockingProblem& problem,
                                  const meta::MetaheuristicParams& params) {
  const meta::MetaheuristicEngine engine(params, options_.observer);
  const scoring::LennardJonesScorer scorer(*problem.receptor, *problem.ligand);
  return execute(problem, scorer, [&](meta::Evaluator& eval, ExecutionReport& report) {
    report.result = engine.run(problem, eval);
    return report.result.evaluations;
  });
}

ExecutionReport NodeExecutor::estimate(const meta::DockingProblem& problem,
                                       const meta::MetaheuristicParams& params,
                                       std::size_t spot_override) {
  const meta::WorkloadTrace trace = meta::WorkloadTrace::from_params(params);
  const std::size_t n_spots = spot_override ? spot_override : problem.spots.size();
  const scoring::AtomCounts atoms = scoring::AtomCounts::of(*problem.receptor, *problem.ligand);
  return execute(problem, atoms, [&](auto& eval, ExecutionReport&) {
    replay(eval, trace, n_spots);
    return trace.evals_per_spot() * n_spots;
  });
}

}  // namespace metadock::sched
