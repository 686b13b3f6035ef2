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
// One timeline-only dispatch path serves real scoring and cost-only trace
// replay: it decides which device is charged for which poses, and when.
// evaluate() then scores the whole batch once on host threads
// (cpusim::HostScorer).  The dispatch pops slices off one worklist: static
// shares (homogeneous = equal, heterogeneous = Eq. 1 warm-up) split each
// slice across the live devices; the cooperative queue ("cooperative
// scheduling of jobs") hands fixed-size chunks to whichever device is free
// first, paying a dispatch latency per pull.  Each device runs its part
// with one of two steps: Algorithm 2's synchronous round (`overlap` off,
// and always in cooperative mode), or a double-buffered two-stream
// pipeline whose copies hide behind the sibling half's kernel.  With the
// pipeline the node's CPU can also take a tail share of every batch
// concurrently (`cpu_tail_share`).  Scores are bit-identical either way;
// only the virtual timeline changes.  A settled batch (pipelined, static,
// unobserved, fault-free) adds the same whole nanoseconds to each device
// wherever it starts, so it replays the device timeline the first batch of
// its size recorded instead of re-issuing every op; a cost-only schedule
// replays whole runs of such batches with a few double operations each and
// commits the device tallies once per run.
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
#include <cstdint>
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
  /// Cost-only: binds all devices of `rt` to price a receptor-ligand pair
  /// of `atoms`; evaluate() throws std::logic_error.  The molecule upload
  /// to every device is accounted immediately (devices load in parallel ->
  /// node pays the max).  Devices already dead under the runtime's fault
  /// plan are quarantined up front.
  MultiGpuBatchScorer(gpusim::Runtime& rt, scoring::AtomCounts atoms, MultiGpuOptions options)
      : MultiGpuBatchScorer(rt, atoms, nullptr, std::move(options)) {}
  /// The same for the atom counts of `scorer`, which also scores every
  /// real batch and must outlive this.
  MultiGpuBatchScorer(gpusim::Runtime& rt, const scoring::LennardJonesScorer& scorer,
                      MultiGpuOptions options)
      : MultiGpuBatchScorer(rt, scorer.atom_counts(), &scorer, std::move(options)) {}

  /// Real scoring: the dispatch of evaluate_cost_only(poses.size()), then
  /// one host pass over the whole batch in pose blocks of warps_per_block.
  /// The dispatch runs first, so gpusim::AllDevicesLostError throws before
  /// any score is written.  host.* metrics go to the devices' observer.
  void evaluate(std::span<const scoring::Pose> poses, std::span<double> out) override;

  /// Trace replay: splits the batch, runs every device's slice on its
  /// clock, advances node time by the slowest device's delta.
  void evaluate_cost_only(std::size_t n);

  /// Trace replay of a whole schedule: a batch of `batches[i] * scale`
  /// poses for each entry in order, with the same timeline as one
  /// evaluate_cost_only call per batch.  Settled batches whose size holds
  /// a replay slot run as one replay (DESIGN.md §13.2).
  void evaluate_cost_only(std::span<const std::size_t> batches, std::size_t scale);

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
  /// neither took any pose).
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

  /// `scorer` is null for a cost-only scorer.
  MultiGpuBatchScorer(gpusim::Runtime& rt, scoring::AtomCounts atoms,
                      const scoring::LennardJonesScorer* scorer, MultiGpuOptions options);

  /// The one timeline body behind evaluate() and evaluate_cost_only():
  /// replays each run of settled batches that hold a replay slot, and sends
  /// every other batch down the per-op path.
  void dispatch(std::span<const std::size_t> batches, std::size_t scale) REQUIRES(serial_);

  /// The per-op path of one `n`-pose batch; records the batch when it is
  /// settled.
  void run_batch(std::size_t n) REQUIRES(serial_);

  /// The CPU tail step of an `n`-pose batch (overlapped mode with a tail
  /// share): the tail engine prices the batch's last poses.  Returns the
  /// head left for the devices and sets `tail_delta` to the tail's busy
  /// seconds, taken from the engine's clock.
  std::size_t run_cpu_tail(std::size_t n, bool overlapped, double& tail_delta)
      REQUIRES(serial_);

  /// The per-op device steps of a batch: the worklist of slices over the
  /// live devices, plus Algorithm 2's batch upload and score download when
  /// not `overlapped`.
  void run_devices(std::size_t n, std::size_t head, bool overlapped) REQUIRES(serial_);

  /// True when this batch's device timelines may be replayed or recorded:
  /// the pipeline is overlapped and static, no observer is on the scorer
  /// or any device, every device is benign, and no fault has been
  /// accounted so far (DESIGN.md §13.2).
  [[nodiscard]] bool settled() const REQUIRES(serial_);
  /// The replay slot recorded for an `n`-pose batch, or kReplaySlots.
  [[nodiscard]] std::size_t replay_slot(std::size_t n) const REQUIRES(serial_);
  /// Replays the leading run of `batches` (each times `scale`) while the
  /// scorer is settled and each size holds a slot: per batch the CPU tail,
  /// the node time, the credits and the rebalance window move exactly as
  /// the per-op path moves them, from per-device nanosecond counters; the
  /// device tallies are committed once at the end.  Returns the batches
  /// replayed.
  std::size_t replay_run(std::span<const std::size_t> batches, std::size_t scale)
      REQUIRES(serial_);
  /// Records what the `n`-pose batch that just ran added to each device
  /// since `tally_before_`, replacing the oldest slot.
  void record_devices(std::size_t n) REQUIRES(serial_);

  /// Algorithm 2's synchronous round for slice `s` on device `d` (the batch
  /// upload and the score download happen at batch level).  Returns the
  /// poses delivered: `s.count`, or 0 when the device must be quarantined.
  inline std::size_t run_round(std::size_t d, Slice s) REQUIRES(serial_);

  /// Double-buffered pipeline for slice `s` on device `d`: two
  /// block-aligned halves on two streams.  Returns the delivered prefix —
  /// `s.count` on success, less when the device died or exhausted its
  /// retries mid-pipeline (the caller re-splits the rest).
  std::size_t run_pipeline(std::size_t d, Slice s) REQUIRES(serial_);

  /// The overlap guard's decision for one slice and the prices of the
  /// launches it makes (DeviceScoringKernel::kernel_seconds, before the
  /// straggle factor).
  struct PipelinePlan {
    /// Poses of the first stream half; the whole slice when a single-shot
    /// round is predicted to be faster.
    std::size_t first = 0;
    double first_s = 0.0;
    /// Price of the second half's kernel (0 when there is none).
    double second_s = 0.0;
  };

  /// The overlap guard for a `count`-pose slice on device `d` at its
  /// current slowdown, memoized in `guard_memo_[d]`.
  PipelinePlan plan_pipeline(std::size_t d, std::size_t count) REQUIRES(serial_);

  /// Launches `count` poses, priced `seconds` (kernel_seconds(count)), on
  /// `stream` of device `d` through retry_transients.
  inline bool launch_slice(std::size_t d, int stream, std::size_t count, double seconds,
                           double& attempt_start) REQUIRES(serial_);

  /// Credits `done` delivered poses and `seconds` of device time to the
  /// device's totals and its rebalance window.
  void credit(std::size_t d, std::size_t done, double seconds) REQUIRES(serial_);

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
  /// CPU models on the `cpu_fallback` spec (empty without one).
  std::optional<cpusim::CpuScoringEngine> cpu_;
  /// Separate engine for the concurrent tail partition: the fallback engine
  /// (`cpu_`) serializes behind the barrier, the tail runs inside it.
  std::optional<cpusim::CpuScoringEngine> tail_cpu_;
  std::size_t cpu_tail_confs_ GUARDED_BY(serial_) = 0;
  /// Per-device pipeline stream ids ({-1,-1} until first overlapped use).
  std::vector<std::array<int, 2>> stream_ids_ GUARDED_BY(serial_);
  /// One memoized plan_pipeline() result.  `count` 0 marks an empty entry
  /// (a pipeline never runs an empty slice).
  struct GuardEntry {
    std::size_t count = 0;
    double slowdown = 0.0;
    PipelinePlan plan;
  };
  /// Per-device memo of plan_pipeline(), keyed on its only varying inputs:
  /// the slice count and the device's slowdown.  A fault-free run sees at
  /// most two counts per device; past four entries the oldest is
  /// replaced.  Scorer-local, so every scorer starts cold.
  struct GuardMemo {
    std::array<GuardEntry, 4> entries;
    std::size_t next = 0;
  };
  std::vector<GuardMemo> guard_memo_ GUARDED_BY(serial_);
  /// What one settled batch added to one device, and the poses credited
  /// to it.
  struct DeviceStep {
    gpusim::DeviceTally tally;
    std::size_t poses = 0;
  };
  /// Distinct batch sizes the replay table holds: a metaheuristic sends
  /// two (M3: combine batches of 64 poses per spot, improve batches of 13).
  static constexpr std::size_t kReplaySlots = 2;
  /// Replay table of settled batches: slot s holds the batch size
  /// `replay_n_[s]` (0 = empty) and device d's step at
  /// `replay_steps_[s * n_dev + d]`.  Sized in the constructor; past
  /// kReplaySlots sizes the oldest slot is replaced.  Scorer-local, so
  /// every scorer starts cold.
  std::array<std::size_t, kReplaySlots> replay_n_ GUARDED_BY(serial_) = {};
  std::vector<DeviceStep> replay_steps_ GUARDED_BY(serial_);
  std::size_t replay_next_ GUARDED_BY(serial_) = 0;
  /// Device tallies at the start of a batch that may be recorded.
  std::vector<gpusim::DeviceTally> tally_before_ GUARDED_BY(serial_);
  /// Each device's clock in a replayed run, ahead of the device until the
  /// run commits: nanoseconds, and the busy seconds they make.
  struct ReplayClock {
    std::uint64_t ns = 0;
    double seconds = 0.0;
  };
  std::vector<ReplayClock> replay_clock_ GUARDED_BY(serial_);
  /// Scores every real batch once, whichever devices the dispatch charged;
  /// empty on a cost-only scorer.
  std::optional<cpusim::HostScorer> host_ GUARDED_BY(serial_);
  // Observed-throughput window for straggler rebalancing.  Both evaluate()
  // and evaluate_cost_only() feed it through the shared dispatch path, so a
  // trace replay rebalances exactly like the real run it replays.
  std::vector<std::size_t> window_confs_ GUARDED_BY(serial_);
  std::vector<double> window_seconds_ GUARDED_BY(serial_);
  std::size_t batches_dispatched_ GUARDED_BY(serial_) = 0;
};

}  // namespace metadock::sched
