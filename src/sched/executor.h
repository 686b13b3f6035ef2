// Node-level execution strategies — the heart of the paper.
//
//   * kCpu           — the OpenMP multicore baseline (no GPUs).
//   * kHomogeneous   — Algorithm 2: one controller thread per GPU; every
//                      scoring batch is "equally distributed among GPUs in
//                      form of CUDA thread blocks".
//   * kHeterogeneous — Section 3.3: a warm-up phase times a few
//                      metaheuristic iterations on every GPU, Percent_g =
//                      t_g / t_slowest (Eq. 1), and every batch is split
//                      proportionally to 1/Percent so all GPUs finish each
//                      barrier together.
//   * kCooperative   — dynamic extension ("cooperative scheduling of
//                      jobs"): devices pull block chunks from a shared
//                      queue; no warm-up needed, but each pull pays a
//                      dispatch latency.
//
// Every strategy exists in two forms sharing one body: run() really
// executes the docking (numeric results + virtual time), and estimate()
// replays the analytic workload trace through the same dispatch path,
// timing a full paper-scale run in milliseconds of host time.  The cost
// models price from atom counts alone, so an estimate copies no atoms:
// only run() builds the LennardJonesScorer its host pass scores with.  The
// GPU node takes the estimate's whole batch schedule in one call, and runs
// of settled batches replay with a few double operations each (DESIGN.md
// §13.2).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/runtime.h"
#include "gpusim/scoring_kernel.h"
#include "meta/engine.h"
#include "meta/params.h"
#include "sched/multi_gpu.h"
#include "sched/node_config.h"

namespace metadock::sched {

enum class Strategy { kCpu, kHomogeneous, kHeterogeneous, kCooperative };

[[nodiscard]] std::string_view strategy_name(Strategy s);

struct ExecutorOptions {
  Strategy strategy = Strategy::kHeterogeneous;
  /// Warm-up iterations (the paper uses five to ten).
  int warmup_iterations = 8;
  /// Conformations per warm-up iteration per GPU.  Must be large enough
  /// that SM-count quantization does not distort the measured Percent —
  /// the warm-up "measures the execution time of a small number of
  /// iterations of the metaheuristic", and a metaheuristic iteration is a
  /// full population batch, so a few hundred blocks is representative.
  std::size_t warmup_batch = 2048;
  /// Blocks per queue pull for kCooperative.
  std::size_t chunk_blocks = 128;
  gpusim::ScoringKernelOptions kernel;
  /// Seeded fault schedule injected into the node's devices (empty = none).
  gpusim::FaultPlan fault_plan;
  /// Retry/quarantine/rebalance policy applied when faults fire.
  FaultPolicy fault_policy;
  /// Observability sink (nullable = off): spans for warm-up, kernels,
  /// copies and metaheuristic iterations on the devices' virtual clocks,
  /// plus the per-device/imbalance metrics (see DESIGN.md §9).
  obs::Observer* observer = nullptr;
  /// Double-buffered stream overlap per device slice (`--overlap`); ignored
  /// by kCooperative whose chunk queue already interleaves devices.  Scores
  /// are bit-identical either way — only the virtual timeline changes.
  bool overlap = true;
  /// Fraction of each batch the host CPU scores concurrently with the GPU
  /// pipelines (`--cpu-tail-share`, overlapped strategies only; needs the
  /// node's CPU spec, which NodeConfig always carries).  Must be in [0, 1).
  double cpu_tail_share = 0.0;
};

struct DeviceReport {
  std::string name;
  /// Conformations this device scored over the whole run.
  std::size_t conformations = 0;
  double share = 0.0;    // fraction of all conformations
  double percent = 1.0;  // Eq. 1 value measured in the warm-up
  double busy_seconds = 0.0;
  /// Busy seconds in the scoring phase only (excludes the warm-up probe) —
  /// the time the Eq. 1 split is supposed to equalize across devices.
  double scoring_seconds = 0.0;
  /// scoring_seconds / slowest device's scoring_seconds (t_g/t_slowest);
  /// 1.0 for the slowest device, 0 for a device that scored nothing.
  double busy_ratio = 0.0;
  double energy_joules = 0.0;
  /// Kernels the device ran and bytes it moved, warm-up included.
  std::uint64_t kernels = 0;
  double bytes_transferred = 0.0;
};

struct ExecutionReport {
  std::string node;
  Strategy strategy = Strategy::kCpu;
  /// End-to-end virtual time: warm-up (if any) + the barrier-aware sum of
  /// per-batch maxima.
  double makespan_seconds = 0.0;
  double warmup_seconds = 0.0;
  double energy_joules = 0.0;
  /// Scoring-phase load imbalance: slowest / fastest scoring_seconds over
  /// the devices that scored work (1.0 = perfectly balanced; 1.0 when
  /// fewer than two devices participated).  The Eq. 1 warm-up split exists
  /// to push this toward 1 on unequal devices.
  double imbalance_ratio = 1.0;
  /// mean / max scoring_seconds over participating devices — the fraction
  /// of the barrier interval the average device was busy (1.0 = no device
  /// ever waited at the batch barrier).
  double balance_efficiency = 1.0;
  std::vector<DeviceReport> devices;
  /// Conformations the CPU tail partition scored (`cpu_tail_share`).
  std::size_t cpu_tail_conformations = 0;
  /// Retries, quarantines, re-splits and degradation under the fault plan
  /// (all zero for a fault-free run).
  FaultReport faults;
  /// Populated by run(); empty for estimate().
  meta::RunResult result;
};

class NodeExecutor {
 public:
  NodeExecutor(NodeConfig node, ExecutorOptions options = {});

  /// Really executes the docking under the configured strategy.
  [[nodiscard]] ExecutionReport run(const meta::DockingProblem& problem,
                                    const meta::MetaheuristicParams& params);

  /// Times a run of `params` over problem.spots (or `spot_override` spots
  /// when nonzero) by replaying the analytic workload trace — no numerics.
  [[nodiscard]] ExecutionReport estimate(const meta::DockingProblem& problem,
                                         const meta::MetaheuristicParams& params,
                                         std::size_t spot_override = 0);

  [[nodiscard]] const NodeConfig& node() const noexcept { return node_; }
  [[nodiscard]] const ExecutorOptions& options() const noexcept { return options_; }

 private:
  struct WarmupResult {
    std::vector<double> times;     // per-GPU warm-up seconds (0 = device lost)
    std::vector<double> percents;  // Eq. 1 (0 sentinel for lost devices)
    std::vector<double> shares;    // Eq. 1 shares (0 for lost devices)
    FaultReport faults;            // faults absorbed during the warm-up
  };

  /// Runs the warm-up probe on every GPU of `rt` for a pair of `atoms`
  /// (cost-only; it occupies the devices exactly as the real warm-up
  /// occupies real GPUs).  A device that dies or exhausts its retries
  /// during the probe gets share 0; the remaining devices split the work
  /// by Eq. 1 as usual.
  [[nodiscard]] WarmupResult warmup(gpusim::Runtime& rt, scoring::AtomCounts atoms) const;

  /// The body of run() and estimate(): builds the node (CPU model, or
  /// runtime + warm-up + batch scorer) on `scoring`, lets
  /// `drive(evaluator, report)` score on it, and fills the report.
  /// `scoring` is the LennardJonesScorer a run scores with, or the
  /// scoring::AtomCounts a cost-only estimate prices from.  For the CPU
  /// strategy `drive` returns the conformations it scored.
  template <typename Scoring, typename Driver>
  [[nodiscard]] ExecutionReport execute(const meta::DockingProblem& problem,
                                        const Scoring& scoring, Driver&& drive);

  /// Builds the batch-splitter configuration for the strategy.
  [[nodiscard]] MultiGpuOptions multi_gpu_options(const WarmupResult& w) const;

  /// Shared tail of run()/estimate(): fills the per-device section and the
  /// imbalance figures.  `scoring_base` is each device's busy_seconds
  /// sampled after the warm-up, so scoring_seconds = busy - base isolates
  /// the phase the Eq. 1 split is meant to balance.
  void fill_report(ExecutionReport& report, const gpusim::Runtime& rt,
                   const MultiGpuBatchScorer& scorer, const WarmupResult& w,
                   const std::vector<double>& scoring_base) const;

  NodeConfig node_;
  ExecutorOptions options_;
};

}  // namespace metadock::sched
