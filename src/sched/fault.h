// Fault-handling policy, accounting and the one retry loop of the node
// schedulers.
//
// The batch scorer survives the fault classes of gpusim::FaultPlan by
//   * retrying transient failures with capped exponential backoff,
//   * quarantining dead devices and re-splitting their in-flight slice
//     across the survivors (shares renormalized, so survivors absorb the
//     lost share proportionally to their Eq. 1 shares),
//   * periodically re-deriving shares from observed per-device throughput
//     (the "re-warm-up" that demotes stragglers), and
//   * degrading to the CPU scoring path when every GPU is lost.
// FaultReport is the per-run account of all of it, threaded through
// sched::ExecutionReport into vs reports.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/fault_plan.h"
#include "obs/observer.h"

namespace metadock::sched {

struct FaultPolicy {
  /// Retries per transient failure before the device is quarantined.
  int max_retries = 3;
  /// Re-derive static shares from observed per-device throughput every this
  /// many batches (0 = off).  This is the periodic re-warm-up that shrinks a
  /// straggler's share after its slowdown sets in.
  std::size_t rebalance_batches = 0;
};

struct FaultReport {
  /// Transient kernel failures observed (injected faults that fired).
  std::uint64_t transient_faults = 0;
  /// Retry launches issued in response.
  std::uint64_t retries = 0;
  /// Devices quarantined (died, or exhausted their retries).
  std::uint64_t devices_lost = 0;
  /// Slices re-split across survivors after a quarantine (a handed-back
  /// slice that falls through to the CPU fallback does not count).
  std::uint64_t resplits = 0;
  /// Observed-throughput share recomputations performed.
  std::uint64_t rebalances = 0;
  /// Conformations absorbed by the CPU fallback path.
  std::uint64_t cpu_fallback_conformations = 0;
  /// Virtual time burned by failed launches and backoff stalls, each
  /// counted once (exact definition: DESIGN.md §8).
  double time_lost_seconds = 0.0;
  /// True once every GPU was lost and the run continued on the CPU model.
  bool degraded_to_cpu = false;
  /// Ordinals of quarantined devices, in quarantine order.
  std::vector<int> lost_devices;

  [[nodiscard]] bool any() const noexcept {
    return transient_faults > 0 || retries > 0 || devices_lost > 0 || resplits > 0 ||
           rebalances > 0 || cpu_fallback_conformations > 0 || degraded_to_cpu ||
           time_lost_seconds > 0.0;
  }

  /// Combines accounting from two phases over the same devices (e.g.
  /// warm-up + batch scoring).  A device can only die once, so losses are
  /// deduplicated by ordinal.
  void merge(const FaultReport& o) {
    transient_faults += o.transient_faults;
    retries += o.retries;
    resplits += o.resplits;
    rebalances += o.rebalances;
    cpu_fallback_conformations += o.cpu_fallback_conformations;
    time_lost_seconds += o.time_lost_seconds;
    degraded_to_cpu = degraded_to_cpu || o.degraded_to_cpu;
    for (int d : o.lost_devices) {
      if (std::find(lost_devices.begin(), lost_devices.end(), d) == lost_devices.end()) {
        lost_devices.push_back(d);
      }
    }
    devices_lost = lost_devices.size();
  }
};

/// First retry backoff (virtual seconds); it doubles per retry up to the
/// cap.
inline constexpr double kBackoffBaseS = 1e-4;
inline constexpr double kBackoffCapS = 1e-2;

/// The one transient-retry loop of the device path (the synchronous round,
/// each pipeline half, the warm-up probe).  Runs `attempt` on `stream`
/// until it succeeds; each TransientFaultError is counted and charged as
/// lost time, then, unless the retries are used up (return false), the
/// stream stalls for a capped exponential backoff: lost too, and recorded
/// as a `retry_backoff` span plus `sched.retries`.  DeviceLostError
/// propagates.  `attempt_start` holds the latest attempt's start on the
/// stream, so callers can price the attempt that succeeded or died.
template <typename Attempt>
bool retry_transients(gpusim::Device& dev, int stream, const FaultPolicy& policy,
                      obs::Observer* observer, FaultReport& faults, double& attempt_start,
                      Attempt&& attempt) {
  double backoff = kBackoffBaseS;
  for (int retry = 0;; ++retry) {
    attempt_start = dev.stream_seconds(stream);
    try {
      attempt();
      return true;
    } catch (const gpusim::TransientFaultError&) {
      ++faults.transient_faults;
      faults.time_lost_seconds += dev.stream_seconds(stream) - attempt_start;
      if (retry >= policy.max_retries) return false;
      ++faults.retries;
      const auto backoff_start_ns = static_cast<std::uint64_t>(dev.stream_seconds(stream) * 1e9);
      dev.advance_stream_seconds(stream, backoff);  // a sibling stream keeps running
      if (observer != nullptr) {
        obs::Span s;
        s.name = "retry_backoff";
        s.category = "fault";
        s.device = obs::stream_track(dev.ordinal(), stream);
        s.start_ns = backoff_start_ns;
        s.dur_ns = static_cast<std::uint64_t>(dev.stream_seconds(stream) * 1e9) - backoff_start_ns;
        s.args = {{"attempt", static_cast<double>(retry + 1)}};
        observer->tracer.record(std::move(s));
        observer->metrics.counter("sched.retries").add();
      }
      faults.time_lost_seconds += backoff;
      backoff = std::min(backoff * 2.0, kBackoffCapS);
    }
  }
}

}  // namespace metadock::sched
