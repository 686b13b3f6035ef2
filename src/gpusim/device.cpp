#include "gpusim/device.h"

#include <stdexcept>

#include "gpusim/cost_model.h"
#include "util/rng.h"

namespace metadock::gpusim {
namespace {

/// Seconds -> ns with the same rounding as VirtualClock::advance_seconds,
/// so stream cursors and the merged device clock agree bit-for-bit.
std::uint64_t delta_ns(double s) noexcept {
  return s > 0.0 ? static_cast<std::uint64_t>(s * 1e9 + 0.5) : 0;
}

double to_seconds(std::uint64_t ns) noexcept { return static_cast<double>(ns) * 1e-9; }

std::string stream_track_name(int ordinal, int stream) {
  return "device." + std::to_string(ordinal) + ".stream." + std::to_string(stream);
}

}  // namespace

void Device::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (obs_ != nullptr) {
    obs_->tracer.set_track_name(ordinal_, "GPU" + std::to_string(ordinal_) + " " + spec_.name);
    for (int s = 1; s < stream_count(); ++s) {
      obs_->tracer.set_track_name(obs::stream_track(ordinal_, s), stream_track_name(ordinal_, s));
    }
  }
}

std::string Device::metric_name(const char* what) const {
  return "device." + std::to_string(ordinal_) + "." + what;
}

int Device::create_stream() {
  streams_.push_back(clock_.nanoseconds());
  const int id = static_cast<int>(streams_.size()) - 1;
  if (obs_ != nullptr) {
    obs_->tracer.set_track_name(obs::stream_track(ordinal_, id), stream_track_name(ordinal_, id));
  }
  return id;
}

std::uint64_t& Device::stream_cursor(int stream) {
  if (stream < 0 || stream >= stream_count()) {
    throw std::out_of_range("Device: bad stream id");
  }
  return streams_[static_cast<std::size_t>(stream)];
}

std::uint64_t Device::stream_ns(int stream) const {
  if (stream < 0 || stream >= stream_count()) {
    throw std::out_of_range("Device: bad stream id");
  }
  return streams_[static_cast<std::size_t>(stream)];
}

Event Device::record_event(int stream) const { return Event{stream_ns(stream)}; }

void Device::wait_event(int stream, const Event& event) {
  std::uint64_t& cursor = stream_cursor(stream);
  cursor = std::max(cursor, event.ns);
}

double Device::stream_seconds(int stream) const { return to_seconds(stream_ns(stream)); }

void Device::advance_stream_seconds(int stream, double s) {
  stream_cursor(stream) += delta_ns(s);
}

void Device::sync() noexcept {
  std::uint64_t horizon = clock_.nanoseconds();
  for (const std::uint64_t cursor : streams_) horizon = std::max(horizon, cursor);
  horizon = std::max(std::max(horizon, h2d_engine_ns_),
                     std::max(d2h_engine_ns_, compute_engine_ns_));
  // The stream-aware merge point: all gpusim clock mutation funnels through
  // here so cursors and the clock can never disagree (lint rule MDL008).
  clock_.advance_ns(horizon - clock_.nanoseconds());  // metadock-lint: allow(raw-clock-advance)
  align_timelines_to_clock();
}

void Device::align_timelines_to_clock() noexcept {
  const std::uint64_t now = clock_.nanoseconds();
  for (std::uint64_t& cursor : streams_) cursor = now;
  h2d_engine_ns_ = now;
  d2h_engine_ns_ = now;
  compute_engine_ns_ = now;
}

void Device::advance_seconds(double s) noexcept {
  sync();
  // A host stall applies to the whole (synchronized) device.
  clock_.advance_seconds(s);  // metadock-lint: allow(raw-clock-advance)
  align_timelines_to_clock();
}

void Device::replay(const DeviceTally& delta) noexcept {
  // The third merge point: a recorded batch's whole-nanosecond delta moves
  // the synced clock, and the timelines follow it (lint rule MDL008).
  clock_.advance_ns(delta.ns);  // metadock-lint: allow(raw-clock-advance)
  align_timelines_to_clock();
  kernels_ += delta.kernels;
  launch_counter_ += delta.launches;
  bytes_moved_ += delta.bytes;
}

void Device::die_at_boundary(std::uint64_t boundary_ns) noexcept {
  // A death mid-stream stops every stream at the boundary: no timeline may
  // show progress past the moment the card fell off the bus.
  for (std::uint64_t& cursor : streams_) cursor = std::max(cursor, boundary_ns);
  h2d_engine_ns_ = std::max(h2d_engine_ns_, boundary_ns);
  d2h_engine_ns_ = std::max(d2h_engine_ns_, boundary_ns);
  compute_engine_ns_ = std::max(compute_engine_ns_, boundary_ns);
  dead_ = true;
}

void Device::launch(const KernelLaunch& launch, const KernelCost& cost) {
  // Synchronous launch == async on the default stream + device sync; the
  // sync also runs on the fault paths, so the merged clock lands exactly
  // where the pre-stream device model left it.
  try {
    launch_async(kDefaultStream, launch, cost);
  } catch (...) {
    sync();
    throw;
  }
  sync();
}

void Device::launch_async(int stream, const KernelLaunch& launch, const KernelCost& cost) {
  launch_async(stream, launch, cost, kernel_time_s(spec_, launch, cost));
}

void Device::launch_async(int stream, const KernelLaunch& launch, const KernelCost& cost,
                          double seconds) {
  std::uint64_t& cursor = stream_cursor(stream);
  const std::uint64_t start_ns = std::max(cursor, compute_engine_ns_);
  const double start_s = to_seconds(start_ns);
  const int track = obs::stream_track(ordinal_, stream);
  if (dead_ || start_s >= fault_.death_at_seconds) {
    dead_ = true;
    if (obs_ != nullptr) {
      obs_->tracer.mark("launch_on_dead_device", "fault", track, start_ns);
    }
    throw DeviceLostError(ordinal_, "device " + spec_.name + " is dead");
  }
  const double t = seconds * slowdown_at(start_s);
  if (start_s + t >= fault_.death_at_seconds) {
    // The launch crosses the death boundary: the device worked until the
    // moment it died and the in-flight slice is lost.
    const std::uint64_t boundary_ns = start_ns + delta_ns(fault_.death_at_seconds - start_s);
    die_at_boundary(boundary_ns);
    if (obs_ != nullptr) {
      obs::Span s;
      s.name = "kernel(lost)";
      s.category = "fault";
      s.device = track;
      s.start_ns = start_ns;
      s.dur_ns = boundary_ns - start_ns;
      s.args = {{"blocks", static_cast<double>(launch.grid_blocks)}};
      obs_->tracer.record(std::move(s));
      obs_->tracer.mark("device_lost", "fault", track, boundary_ns);
    }
    throw DeviceLostError(ordinal_, "device " + spec_.name + " died mid-kernel");
  }
  ++launch_counter_;
  if (fault_.transient_probability > 0.0) {
    // Counter-based sampling: the fault sequence is a pure function of
    // (plan seed, ordinal, launch index), so a retry (the next launch
    // index) re-samples and runs are reproducible across host threading.
    util::Xoshiro256 rng = util::stream(fault_seed_, static_cast<std::uint64_t>(ordinal_),
                                        launch_counter_);
    if (rng.bernoulli(fault_.transient_probability)) {
      // The failed launch still occupied this stream and the SMs; sibling
      // streams keep their in-flight work untouched.
      const std::uint64_t end_ns = start_ns + delta_ns(t);
      cursor = end_ns;
      compute_engine_ns_ = std::max(compute_engine_ns_, end_ns);
      ++transients_injected_;
      if (obs_ != nullptr) {
        obs::Span s;
        s.name = "kernel(transient)";
        s.category = "fault";
        s.device = track;
        s.start_ns = start_ns;
        s.dur_ns = end_ns - start_ns;
        s.args = {{"blocks", static_cast<double>(launch.grid_blocks)}};
        obs_->tracer.record(std::move(s));
        obs_->metrics.counter(metric_name("transient_faults")).add();
      }
      throw TransientFaultError(ordinal_, "transient kernel failure on " + spec_.name);
    }
  }
  const std::uint64_t end_ns = start_ns + delta_ns(t);
  cursor = end_ns;
  compute_engine_ns_ = std::max(compute_engine_ns_, end_ns);
  ++kernels_;
  if (obs_ != nullptr) {
    obs::Span s;
    s.name = "kernel";
    s.category = "kernel";
    s.device = track;
    s.start_ns = start_ns;
    s.dur_ns = end_ns - start_ns;
    s.args = {{"blocks", static_cast<double>(launch.grid_blocks)},
              {"gflops", t > 0.0 ? cost.flops / t * 1e-9 : 0.0},
              {"gbps", t > 0.0 ? cost.global_bytes / t * 1e-9 : 0.0}};
    obs_->tracer.record(std::move(s));
    obs_->metrics.counter(metric_name("kernels")).add();
    obs_->metrics.counter(metric_name("flops")).add(cost.flops);
    obs_->metrics.counter(metric_name("global_bytes")).add(cost.global_bytes);
    obs_->metrics.histogram(metric_name("kernel_seconds")).record(t);
    if (t > 0.0) {
      obs_->metrics.histogram(metric_name("achieved_gflops")).record(cost.flops / t * 1e-9);
      obs_->metrics.histogram(metric_name("achieved_gbps")).record(cost.global_bytes / t * 1e-9);
    }
  }
}

void Device::allocate(double bytes) {
  const double capacity = spec_.dram_gb * 1e9;
  if (allocated_bytes_ + bytes > capacity) {
    throw std::runtime_error("Device::allocate: out of memory on " + spec_.name);
  }
  allocated_bytes_ += bytes;
}

void Device::do_copy(int stream, double bytes, bool to_device, bool fault_checked) {
  std::uint64_t& cursor = stream_cursor(stream);
  std::uint64_t& engine = to_device ? h2d_engine_ns_ : d2h_engine_ns_;
  const std::uint64_t start_ns = std::max(cursor, engine);
  const double t = transfer_time_s(spec_, bytes);
  const int track = obs::stream_track(ordinal_, stream);
  if (fault_checked) {
    const double start_s = to_seconds(start_ns);
    if (dead_ || start_s >= fault_.death_at_seconds) {
      dead_ = true;
      if (obs_ != nullptr) {
        obs_->tracer.mark("copy_on_dead_device", "fault", track, start_ns);
      }
      throw DeviceLostError(ordinal_, "device " + spec_.name + " is dead");
    }
    if (start_s + t >= fault_.death_at_seconds) {
      const std::uint64_t boundary_ns = start_ns + delta_ns(fault_.death_at_seconds - start_s);
      die_at_boundary(boundary_ns);
      if (obs_ != nullptr) {
        obs::Span s;
        s.name = to_device ? "h2d(lost)" : "d2h(lost)";
        s.category = "fault";
        s.device = track;
        s.start_ns = start_ns;
        s.dur_ns = boundary_ns - start_ns;
        s.args = {{"bytes", bytes}};
        obs_->tracer.record(std::move(s));
        obs_->tracer.mark("device_lost", "fault", track, boundary_ns);
      }
      throw DeviceLostError(ordinal_, "device " + spec_.name + " died mid-copy");
    }
  }
  const std::uint64_t end_ns = start_ns + delta_ns(t);
  cursor = end_ns;
  engine = std::max(engine, end_ns);
  bytes_moved_ += bytes;
  if (obs_ != nullptr) {
    obs::Span s;
    s.name = to_device ? "h2d" : "d2h";
    s.category = "copy";
    s.device = track;
    s.start_ns = start_ns;
    s.dur_ns = end_ns - start_ns;
    s.args = {{"bytes", bytes}};
    obs_->tracer.record(std::move(s));
    obs_->metrics.counter(metric_name(to_device ? "h2d_bytes" : "d2h_bytes")).add(bytes);
  }
}

void Device::copy_to_device(double bytes) {
  // The synchronous copies are deliberately not fault-checked: Algorithm 2
  // charges a dead card's batch-epilogue DMA bookkeeping too, and the
  // scheduler learns about the death from the next launch.
  do_copy(kDefaultStream, bytes, /*to_device=*/true, /*fault_checked=*/false);
  sync();
}

void Device::copy_from_device(double bytes) {
  do_copy(kDefaultStream, bytes, /*to_device=*/false, /*fault_checked=*/false);
  sync();
}

void Device::copy_to_device_async(int stream, double bytes) {
  do_copy(stream, bytes, /*to_device=*/true, /*fault_checked=*/true);
}

void Device::copy_from_device_async(int stream, double bytes) {
  do_copy(stream, bytes, /*to_device=*/false, /*fault_checked=*/true);
}

}  // namespace metadock::gpusim
