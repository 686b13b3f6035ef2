// Multi-GPU batch scorer — Algorithm 2 of the paper, hardened against
// device faults.
//
// Every scoring call (one Scom batch) is split across the node's GPUs at
// thread-block granularity: device g receives a contiguous stride of
// conformations sized by its share ("each GPU calculates the scoring
// function for a set of candidate solutions ... equally distributed among
// GPUs in form of CUDA thread blocks" — or proportionally to 1/Percent in
// the heterogeneous algorithm).  The host joins all controller threads
// before the metaheuristic continues, so each batch costs the *maximum*
// over the devices' times — the barrier that makes load balance matter.
//
// One dispatch path serves real scoring and cost-only trace replay.  It
// pops slices off one worklist: static shares (homogeneous = equal,
// heterogeneous = Eq. 1 warm-up) split each slice across the live devices;
// the cooperative queue ("cooperative scheduling of jobs") hands fixed-size
// chunks to whichever device is free first, paying a dispatch latency per
// pull.  Each device runs its part with one of two steps: Algorithm 2's
// synchronous round (`overlap` off, and always in cooperative mode), or a
// double-buffered two-stream pipeline whose copies hide behind the sibling
// half's kernel.  With the pipeline the host CPU can also score a tail
// share of every batch concurrently (`cpu_tail_share`).  Scores are
// bit-identical either way; only the virtual timeline changes.
//
// Fault tolerance (gpusim::FaultPlan attached to the Runtime):
//   * transient launch failures are retried with capped exponential
//     backoff (FaultPolicy, retry_transients);
//   * a dead device (or one that exhausts its retries) is quarantined; its
//     undelivered remainder goes back on the worklist and is re-split
//     across the survivors with the shares renormalized;
//   * static shares are optionally re-derived from observed per-device
//     throughput every `rebalance_batches` batches (straggler demotion);
//   * when every GPU is lost, scoring degrades to the CPU model
//     (`cpu_fallback`) instead of aborting; without a fallback the typed
//     gpusim::AllDevicesLostError is raised.
// Every retry/quarantine/re-split is counted in the FaultReport, and no
// score is ever silently dropped: a slice either completes on some device
// (or the CPU) or the scorer throws.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "cpusim/cpu_engine.h"
#include "gpusim/runtime.h"
#include "gpusim/scoring_kernel.h"
#include "meta/evaluator.h"
#include "obs/observer.h"
#include "sched/fault.h"
#include "scoring/lennard_jones.h"
#include "util/sync.h"

namespace metadock::sched {

struct MultiGpuOptions {
  gpusim::ScoringKernelOptions kernel;
  /// Static split: per-device work shares (normalized internally).  Leave
  /// empty with dynamic=true for the cooperative scheduler.
  std::vector<double> shares;
  /// Dynamic block-queue mode.
  bool dynamic = false;
  /// Blocks per queue pull in dynamic mode.  Each pull costs a dispatch
  /// latency plus a kernel-launch overhead, so very small chunks trade
  /// balance for overhead (the scheduler-granularity ablation).
  std::size_t chunk_blocks = 128;
  /// Retry/quarantine/rebalance policy for injected faults.
  FaultPolicy faults;
  /// Double-buffered stream overlap (`--overlap`): each device's slice is
  /// pipelined as two half-batches across two streams, so H2D for one half
  /// overlaps the kernel of the other and D2H rides the transfer stream.
  /// Off reproduces the paper's fully synchronous Algorithm 2 round.
  /// Ignored (always serial) in dynamic mode, whose chunk queue already
  /// interleaves devices.  Scores are bit-identical either way — only the
  /// virtual timeline changes.
  bool overlap = true;
  /// Fraction of every batch the host CPU scores concurrently with the GPU
  /// pipelines (`--cpu-tail-share`, overlapped static mode only): the
  /// barrier takes max(GPU pipelines, CPU tail).  0 disables the tail;
  /// requires `cpu_fallback` as the engine.  Must be < 1.
  double cpu_tail_share = 0.0;
  /// CPU that absorbs the workload once every GPU is lost.  Without it, an
  /// all-devices-lost run throws gpusim::AllDevicesLostError.
  std::optional<cpusim::CpuSpec> cpu_fallback;
  /// Observability sink (nullable = off): batch spans on the host track,
  /// retry/quarantine/re-split/rebalance events, "sched.*" counters.
  obs::Observer* observer = nullptr;
};

/// Splits `n` conformations into per-device contiguous counts proportional
/// to `shares`, rounded to whole blocks of `warps_per_block` conformations
/// (largest-remainder on blocks).
[[nodiscard]] std::vector<std::size_t> split_batch(std::size_t n, int warps_per_block,
                                                   const std::vector<double>& shares);

/// Core of split_batch: writes per-device counts into `counts` (size must
/// equal shares.size()).  Its remainder scratch is grow-only and
/// thread_local.
void split_batch_into(std::size_t n, int warps_per_block, std::span<const double> shares,
                      std::span<std::size_t> counts);

class MultiGpuBatchScorer final : public meta::Evaluator {
 public:
  /// Binds all devices of `rt`; the molecule upload to every device is
  /// accounted immediately (devices load in parallel -> node pays the max).
  /// Devices already dead under the runtime's fault plan are quarantined
  /// up front.
  MultiGpuBatchScorer(gpusim::Runtime& rt, const scoring::LennardJonesScorer& scorer,
                      MultiGpuOptions options);

  /// Real scoring: splits the batch, runs every device's slice, advances
  /// node time by the slowest device's delta.
  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override;

  /// Cost-only variant for trace replay: the same dispatch, no numerics.
  void evaluate_cost_only(std::size_t n);

  /// Barrier-aware node time: molecule upload + sum over batches of the
  /// slowest device's per-batch time (plus CPU-fallback time when engaged).
  [[nodiscard]] double node_seconds() const noexcept {
    util::ScopedSerial own(serial_);
    return node_seconds_;
  }

  /// Engine-facing timeline (meta::Evaluator): the barrier-aware node time.
  [[nodiscard]] double virtual_seconds() const override {
    util::ScopedSerial own(serial_);
    return node_seconds_;
  }

  /// Conformations each device has scored so far.
  [[nodiscard]] const std::vector<std::size_t>& device_conformations() const noexcept {
    util::ScopedSerial own(serial_);
    return device_confs_;
  }

  /// Fault accounting for the work dispatched so far.
  [[nodiscard]] const FaultReport& fault_report() const noexcept {
    util::ScopedSerial own(serial_);
    return faults_;
  }

  /// Modeled energy spent by the CPU engines (fallback + tail; 0 when
  /// neither was ever engaged).
  [[nodiscard]] double cpu_energy_joules() const noexcept {
    return (cpu_ ? cpu_->energy_joules() : 0.0) +
           (tail_cpu_ ? tail_cpu_->energy_joules() : 0.0);
  }

  /// Conformations the CPU tail partition has scored so far.
  [[nodiscard]] std::size_t cpu_tail_conformations() const noexcept {
    util::ScopedSerial own(serial_);
    return cpu_tail_confs_;
  }

  /// True when the device has been quarantined (dead or retries exhausted).
  [[nodiscard]] bool quarantined(std::size_t device) const {
    util::ScopedSerial own(serial_);
    return quarantined_.at(device);
  }

  /// Current static shares (renormalization happens at split time; all-zero
  /// means every device is quarantined).
  [[nodiscard]] const std::vector<double>& current_shares() const noexcept {
    util::ScopedSerial own(serial_);
    return shares_;
  }

 private:
  struct Slice {
    std::size_t offset = 0;
    std::size_t count = 0;
    /// Handed back by a quarantined device (not part of the initial split).
    bool returned = false;
  };

  /// Modeled host-side dispatch latency per cooperative pull, seconds.
  static constexpr double kPullLatencyS = 3e-6;

  /// The one body behind evaluate() and evaluate_cost_only(): empty
  /// `poses`/`out` replay the batch's cost only.
  void dispatch(std::size_t n, std::span<const scoring::Pose> poses, std::span<double> out)
      REQUIRES(serial_);

  /// Algorithm 2's synchronous round for slice `s` on device `d` (the batch
  /// upload and the score download happen at batch level).  Returns the
  /// poses delivered: `s.count`, or 0 when the device must be quarantined.
  inline std::size_t run_round(std::size_t d, Slice s, std::span<const scoring::Pose> poses,
                               std::span<double> out) REQUIRES(serial_);

  /// Double-buffered pipeline for slice `s` on device `d`: two
  /// block-aligned halves on two streams.  Returns the delivered prefix —
  /// `s.count` on success, less when the device died or exhausted its
  /// retries mid-pipeline (the caller re-splits the rest).
  std::size_t run_pipeline(std::size_t d, Slice s, std::span<const scoring::Pose> poses,
                           std::span<double> out) REQUIRES(serial_);

  /// Launches slice `s` on `stream` of device `d` through retry_transients.
  inline bool launch_slice(std::size_t d, int stream, Slice s,
                           std::span<const scoring::Pose> poses, std::span<double> out,
                           double& attempt_start) REQUIRES(serial_);

  /// Credits `done` delivered poses and `seconds` of device time to the
  /// device's totals and its rebalance window.
  void credit(std::size_t d, std::size_t done, double seconds) REQUIRES(serial_);

  /// Lazily creates `engine` on the fallback CPU spec with the device
  /// kernels' host implementation, so moving poses to the CPU (tail or
  /// fallback) never changes their scores.
  cpusim::CpuScoringEngine& engage(std::optional<cpusim::CpuScoringEngine>& engine)
      REQUIRES(serial_);

  void quarantine(std::size_t d) REQUIRES(serial_);
  /// Refills `alive_` with the indices of non-quarantined devices.
  void refresh_alive() REQUIRES(serial_);
  /// Every `rebalance_batches` batches, re-derives the shares of the live
  /// devices from their observed throughput.
  void maybe_rebalance() REQUIRES(serial_);

  /// Single-owner role capability (DESIGN.md §16): the Evaluator contract
  /// says one logical thread drives the scorer, and every entry point
  /// claims this role for its duration.  The launch lambdas handed to
  /// retry_transients are analyzed without the role, so they touch only
  /// the unguarded engine state (kernels_), never the bookkeeping below.
  mutable util::Serial serial_;

  gpusim::Runtime& rt_;
  MultiGpuOptions options_;
  std::deque<std::optional<gpusim::DeviceScoringKernel>> kernels_;
  /// Working shares; 0 for quarantined devices.
  std::vector<double> shares_ GUARDED_BY(serial_);
  std::vector<bool> quarantined_ GUARDED_BY(serial_);
  std::vector<std::size_t> device_confs_ GUARDED_BY(serial_);
  double node_seconds_ GUARDED_BY(serial_) = 0.0;

  // Per-batch scratch of dispatch(), sized once in the constructor; only
  // the slice worklist grows, when a batch needs more slices than any
  // batch before it.
  std::vector<double> busy_before_ GUARDED_BY(serial_);
  std::vector<std::size_t> confs_before_ GUARDED_BY(serial_);
  /// Live devices, then (per slice) the slice's target devices.
  std::vector<std::size_t> alive_ GUARDED_BY(serial_);
  std::vector<Slice> pending_ GUARDED_BY(serial_);
  std::vector<double> weights_ GUARDED_BY(serial_);
  std::vector<std::size_t> counts_ GUARDED_BY(serial_);

  FaultReport faults_ GUARDED_BY(serial_);
  std::optional<cpusim::CpuScoringEngine> cpu_;
  /// Separate engine for the concurrent tail partition: the fallback engine
  /// (`cpu_`) serializes behind the barrier, the tail runs inside it.
  std::optional<cpusim::CpuScoringEngine> tail_cpu_;
  std::size_t cpu_tail_confs_ GUARDED_BY(serial_) = 0;
  /// Per-device pipeline stream ids ({-1,-1} until first overlapped use).
  std::vector<std::array<int, 2>> stream_ids_ GUARDED_BY(serial_);
  const scoring::LennardJonesScorer& scorer_;
  // Observed-throughput window for straggler rebalancing.  Both evaluate()
  // and evaluate_cost_only() feed it through the shared dispatch path, so a
  // trace replay rebalances exactly like the real run it replays.
  std::vector<std::size_t> window_confs_ GUARDED_BY(serial_);
  std::vector<double> window_seconds_ GUARDED_BY(serial_);
  std::size_t batches_dispatched_ GUARDED_BY(serial_) = 0;
};

}  // namespace metadock::sched
