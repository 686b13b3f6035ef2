// A virtual CUDA device: spec + virtual clock + transfer/energy accounting.
//
// The device is a pure cost model: `launch` advances the virtual clock by
// the analytic cost of a kernel and does no numeric work.  The scheduler
// scores each batch once on host threads (cpusim::HostScorer), so one host
// reproduces the timing behaviour of six GPUs it does not have without
// paying a launch fan-out per device.
//
// Streams & events: the device carries per-stream virtual timelines
// (cursors in ns) next to three engine timelines (H2D copy, D2H copy,
// compute).  An async op starts at max(stream cursor, engine timeline) and
// advances both to its end, so copies on one stream overlap kernels on
// another while same-engine ops serialize — the cudaStream_t contention
// model.  `record_event`/`wait_event` express cross-stream dependencies;
// `sync()` (cudaDeviceSynchronize) merges every timeline into the device
// clock and re-aligns them.  The synchronous API is exactly async on the
// default stream followed by sync, so legacy callers see bit-identical
// clocks.  Fault semantics per stream: a death clamps *all* timelines to
// the boundary (every stream stops when the card falls off the bus); a
// transient occupies only the launching stream and the compute engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/device_spec.h"
#include "gpusim/fault_plan.h"
#include "gpusim/launch.h"
#include "gpusim/virtual_clock.h"
#include "obs/observer.h"

namespace metadock::gpusim {

/// A recorded point on a stream's timeline (cudaEvent_t equivalent).
struct Event {
  std::uint64_t ns = 0;
};

/// A device's running totals: clock, kernels, launches and bytes moved.
/// Every timeline counts whole nanoseconds, so a fault-free op sequence
/// issued on a synced device adds the same tally wherever it starts
/// (DESIGN.md §13.1).
struct DeviceTally {
  std::uint64_t ns = 0;
  std::uint64_t kernels = 0;
  std::uint64_t launches = 0;
  /// Whole bytes (28 per pose, 8 per score, 17 per atom), so sums and
  /// differences below 2^53 are exact.
  double bytes = 0.0;

  /// What the device added between `before` and this later snapshot.
  [[nodiscard]] DeviceTally since(const DeviceTally& before) const noexcept {
    return {ns - before.ns, kernels - before.kernels, launches - before.launches,
            bytes - before.bytes};
  }
};

class Device {
 public:
  /// The always-present default stream; the synchronous API issues on it.
  static constexpr int kDefaultStream = 0;

  explicit Device(DeviceSpec spec, int ordinal = 0)
      : spec_(std::move(spec)), ordinal_(ordinal) {}

  [[nodiscard]] const DeviceSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] int ordinal() const noexcept { return ordinal_; }

  /// Launches a kernel: advances the clock by the cost model.
  ///
  /// Fault injection (see fault_plan.h): throws DeviceLostError when the
  /// device is dead or dies during this launch (the clock stops at the
  /// death boundary), and TransientFaultError when the seeded per-launch
  /// failure fires (the clock pays for the failed launch).
  void launch(const KernelLaunch& launch, const KernelCost& cost);

  // --- Streams & events --------------------------------------------------

  /// cudaStreamCreate: a new stream whose cursor starts at the current
  /// device clock.  Returns its id (>= 1; stream 0 always exists).
  int create_stream();
  [[nodiscard]] int stream_count() const noexcept {
    return static_cast<int>(streams_.size());
  }

  /// Async kernel launch on `stream`: starts at max(stream cursor, compute
  /// engine), advances both; the device clock moves only at sync().  Fault
  /// semantics: a dead device (or a launch that would start past the death
  /// time) throws immediately; a launch crossing the boundary clamps every
  /// timeline to it; a transient advances only this stream + the compute
  /// engine, so sibling streams keep their in-flight work.
  void launch_async(int stream, const KernelLaunch& launch, const KernelCost& cost);
  /// launch_async with the launch already priced: `seconds` must equal
  /// kernel_time_s(spec(), launch, cost).  The straggle factor still
  /// applies as of the launch's start.
  void launch_async(int stream, const KernelLaunch& launch, const KernelCost& cost,
                    double seconds);
  /// Async H2D on `stream`; same-direction copies serialize on the shared
  /// PCIe engine.  Throws DeviceLostError on/through the death boundary.
  void copy_to_device_async(int stream, double bytes);
  /// Async D2H on `stream` (own engine: full-duplex against H2D).
  void copy_from_device_async(int stream, double bytes);

  /// cudaEventRecord: snapshots the stream's cursor.
  [[nodiscard]] Event record_event(int stream) const;
  /// cudaStreamWaitEvent: the stream will not start later work before the
  /// recorded point (cursor = max(cursor, event)).
  void wait_event(int stream, const Event& event);
  /// cudaDeviceSynchronize: merges every stream cursor and engine timeline
  /// into the device clock, then re-aligns them to it.
  void sync() noexcept;

  /// Snapshot of the running totals.
  [[nodiscard]] DeviceTally tally() const noexcept {
    return {clock_.nanoseconds(), kernels_, launch_counter_, bytes_moved_};
  }
  /// Adds `delta`, the tally a fault-free op sequence added to this device
  /// earlier, without issuing the ops: the clock and every timeline move
  /// together, as sync() would leave them.  The device must be synced, as
  /// the scheduler leaves every device after each batch.
  void replay(const DeviceTally& delta) noexcept;

  /// Virtual time of one stream's cursor (>= busy_seconds() mid-epoch).
  [[nodiscard]] double stream_seconds(int stream) const;
  /// Host-imposed stall on one stream only (e.g. a per-stream retry
  /// backoff); sibling streams keep running.
  void advance_stream_seconds(int stream, double s);

  // -----------------------------------------------------------------------

  /// Attaches an observer (nullable = off): every launch and transfer is
  /// recorded as a span on this device's virtual-clock timeline, with
  /// achieved-GFLOPS/GB/s histograms derived from the KernelCost.  Spans
  /// from created streams land on "device.N.stream.S" tracks.
  void set_observer(obs::Observer* observer);
  [[nodiscard]] obs::Observer* observer() const noexcept { return obs_; }

  /// Attaches a fault description (from a gpusim::FaultPlan).
  void set_fault(const DeviceFaultSpec& fault, std::uint64_t plan_seed) noexcept {
    fault_ = fault;
    fault_seed_ = plan_seed;
  }
  [[nodiscard]] const DeviceFaultSpec& fault() const noexcept { return fault_; }

  /// True once the device's clock has reached its planned death time (or a
  /// launch crossed the boundary).
  [[nodiscard]] bool is_dead() const noexcept {
    return dead_ || clock_.seconds() >= fault_.death_at_seconds;
  }

  /// Current kernel slowdown: straggle_factor once the straggle onset has
  /// passed, 1.0 before.
  [[nodiscard]] double slowdown() const noexcept {
    return clock_.seconds() >= fault_.straggle_after_seconds ? fault_.straggle_factor : 1.0;
  }

  /// Transient failures this device has injected so far.
  [[nodiscard]] std::uint64_t transient_faults_injected() const noexcept {
    return transients_injected_;
  }

  /// Advances the whole device by host-imposed stall time (e.g. a
  /// scheduler's dispatch latency): merges outstanding stream work first,
  /// then moves the clock and every timeline together.
  void advance_seconds(double s) noexcept;

  /// Reserves device global memory; throws std::runtime_error when the
  /// allocation would exceed the card's DRAM (cudaMalloc failure).
  void allocate(double bytes);
  /// Releases a previous reservation.
  void deallocate(double bytes) noexcept {
    allocated_bytes_ = std::max(0.0, allocated_bytes_ - bytes);
  }
  [[nodiscard]] double allocated_bytes() const noexcept { return allocated_bytes_; }

  /// Host -> device transfer of `bytes`.
  void copy_to_device(double bytes);
  /// Device -> host transfer of `bytes`.
  void copy_from_device(double bytes);

  [[nodiscard]] double busy_seconds() const noexcept { return clock_.seconds(); }
  [[nodiscard]] std::uint64_t kernels_launched() const noexcept { return kernels_; }
  [[nodiscard]] double bytes_transferred() const noexcept { return bytes_moved_; }

  /// Modeled energy: TDP x busy time x activity factor.
  [[nodiscard]] double energy_joules() const noexcept {
    return spec_.tdp_watts * busy_seconds() * kActivityFactor;
  }

  /// Restores the freshly-constructed state: clock at zero, one (default)
  /// stream, no fault plan attached.  A Runtime re-attaches its plan after
  /// resetting (Runtime::reset_all); a standalone reset really is a new
  /// device.
  void reset() noexcept {
    clock_.reset();
    streams_.assign(1, 0);
    h2d_engine_ns_ = 0;
    d2h_engine_ns_ = 0;
    compute_engine_ns_ = 0;
    kernels_ = 0;
    bytes_moved_ = 0.0;
    allocated_bytes_ = 0.0;
    fault_ = DeviceFaultSpec{};
    fault_seed_ = 0;
    dead_ = false;
    launch_counter_ = 0;
    transients_injected_ = 0;
  }

 private:
  static constexpr double kActivityFactor = 0.85;

  /// "device.<ordinal>.<what>" metric key.
  [[nodiscard]] std::string metric_name(const char* what) const;

  /// Bounds-checked cursor access.
  [[nodiscard]] std::uint64_t& stream_cursor(int stream);
  [[nodiscard]] std::uint64_t stream_ns(int stream) const;
  /// Straggle factor as of a (stream-local) start time.
  [[nodiscard]] double slowdown_at(double start_seconds) const noexcept {
    return start_seconds >= fault_.straggle_after_seconds ? fault_.straggle_factor : 1.0;
  }
  /// Clamps every stream cursor and engine timeline to the death boundary
  /// and marks the device dead: no timeline shows progress past it.
  void die_at_boundary(std::uint64_t boundary_ns) noexcept;
  /// Moves all stream cursors and engine timelines to the current clock.
  void align_timelines_to_clock() noexcept;
  /// Shared copy core; `fault_checked` is false for the legacy synchronous
  /// copies (Algorithm 2 charges a dead card's batch epilogue DMA too).
  void do_copy(int stream, double bytes, bool to_device, bool fault_checked);

  DeviceSpec spec_;
  int ordinal_ = 0;
  obs::Observer* obs_ = nullptr;
  VirtualClock clock_;
  /// Per-stream cursors, ns; index 0 is the default stream.
  std::vector<std::uint64_t> streams_ = std::vector<std::uint64_t>(1, 0);
  /// Engine timelines: ops sharing an engine serialize against each other.
  std::uint64_t h2d_engine_ns_ = 0;
  std::uint64_t d2h_engine_ns_ = 0;
  std::uint64_t compute_engine_ns_ = 0;
  std::uint64_t kernels_ = 0;
  double bytes_moved_ = 0.0;
  double allocated_bytes_ = 0.0;
  DeviceFaultSpec fault_;
  std::uint64_t fault_seed_ = 0;
  bool dead_ = false;
  std::uint64_t launch_counter_ = 0;
  std::uint64_t transients_injected_ = 0;
};

}  // namespace metadock::gpusim
