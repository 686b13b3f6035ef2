#include "sched/multi_gpu.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "gpusim/cost_model.h"

namespace metadock::sched {
namespace {

/// The cost model's price of a `bytes` copy on `dev`.
double copy_s(const gpusim::Device& dev, double bytes) {
  return gpusim::transfer_time_s(dev.spec(), bytes);
}

}  // namespace

void split_batch_into(std::size_t n, int warps_per_block, std::span<const double> shares,
                      std::span<std::size_t> counts) {
  if (shares.empty()) throw std::invalid_argument("split_batch: no shares");
  if (warps_per_block <= 0) throw std::invalid_argument("split_batch: bad block size");
  if (counts.size() != shares.size()) {
    throw std::invalid_argument("split_batch_into: counts/shares size mismatch");
  }
  double sum = 0.0;
  for (double s : shares) {
    if (s < 0.0) throw std::invalid_argument("split_batch: negative share");
    sum += s;
  }
  if (sum <= 0.0) throw std::invalid_argument("split_batch: shares sum to zero");

  // Apportion whole blocks by largest remainder (`counts` holds blocks
  // until the last loop), then convert to conformations; the final device
  // absorbs the tail block's padding.
  thread_local std::vector<double> rema;
  thread_local std::vector<std::size_t> order;
  const auto wpb = static_cast<std::size_t>(warps_per_block);
  const std::size_t total_blocks = (n + wpb - 1) / wpb;
  const std::size_t bins = shares.size();
  if (rema.size() < bins) {
    rema.resize(bins);
    order.resize(bins);
  }
  std::size_t assigned = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    const double exact = static_cast<double>(total_blocks) * shares[b] / sum;
    counts[b] = static_cast<std::size_t>(exact);
    rema[b] = exact - static_cast<double>(counts[b]);
    assigned += counts[b];
  }
  // Stable insertion sort by descending remainder: bins are few (one per
  // device), and unlike std::stable_sort it needs no temporary buffer.
  for (std::size_t b = 0; b < bins; ++b) {
    std::size_t i = b;
    for (; i > 0 && rema[order[i - 1]] < rema[b]; --i) order[i] = order[i - 1];
    order[i] = b;
  }
  for (std::size_t i = 0; assigned < total_blocks; ++i) {
    ++counts[order[i % bins]];
    ++assigned;
  }

  std::size_t given = 0;
  for (std::size_t b = 0; b < bins; ++b) {
    counts[b] = std::min(counts[b] * wpb, n - given);
    given += counts[b];
  }
}

std::vector<std::size_t> split_batch(std::size_t n, int warps_per_block,
                                     const std::vector<double>& shares) {
  std::vector<std::size_t> confs(shares.size(), 0);
  split_batch_into(n, warps_per_block, shares, confs);
  return confs;
}

MultiGpuBatchScorer::MultiGpuBatchScorer(gpusim::Runtime& rt, scoring::AtomCounts atoms,
                                         const scoring::LennardJonesScorer* scorer,
                                         MultiGpuOptions options)
    : rt_(rt), options_(std::move(options)) {
  // Nobody else can hold the role during construction; claiming it here
  // lets quarantine() and the share bookkeeping run under the capability.
  const util::ScopedSerial own(serial_);
  if (scorer != nullptr) {
    host_.emplace(*scorer, options_.kernel.warps_per_block,
                  scoring::kernel_simd_level(options_.kernel.impl, options_.kernel.simd_level));
  }
  const auto n_dev = static_cast<std::size_t>(rt_.device_count());
  if (n_dev == 0) throw std::invalid_argument("MultiGpuBatchScorer: no devices");
  if (options_.observer != nullptr) rt_.attach_observer(options_.observer);
  if (!options_.dynamic) {
    if (options_.shares.empty()) options_.shares.assign(n_dev, 1.0);
    if (options_.shares.size() != n_dev) {
      throw std::invalid_argument("MultiGpuBatchScorer: shares/device count mismatch");
    }
  }
  if (options_.cpu_tail_share < 0.0 || options_.cpu_tail_share >= 1.0) {
    throw std::invalid_argument("MultiGpuBatchScorer: cpu_tail_share must be in [0, 1)");
  }
  if (options_.cpu_tail_share > 0.0 && !options_.cpu_fallback) {
    throw std::invalid_argument(
        "MultiGpuBatchScorer: cpu_tail_share needs a cpu_fallback engine");
  }
  if (options_.cpu_fallback) {
    cpu_.emplace(*options_.cpu_fallback, atoms);
    tail_cpu_.emplace(*options_.cpu_fallback, atoms);
  }
  device_confs_.assign(n_dev, 0);
  quarantined_.assign(n_dev, false);
  window_confs_.assign(n_dev, 0);
  window_seconds_.assign(n_dev, 0.0);
  stream_ids_.assign(n_dev, {-1, -1});
  guard_memo_.assign(n_dev, {});
  replay_steps_.assign(kReplaySlots * n_dev, {});
  tally_before_.assign(n_dev, {});
  replay_clock_.assign(n_dev, {});
  busy_before_.assign(n_dev, 0.0);
  confs_before_.assign(n_dev, 0);
  alive_.reserve(n_dev);
  weights_.assign(n_dev, 0.0);
  counts_.assign(n_dev, 0);

  if (!options_.dynamic) {
    shares_ = options_.shares;
    const double sum = std::accumulate(shares_.begin(), shares_.end(), 0.0);
    // All-zero shares (every device declared lost before the run, e.g. by a
    // fault-tolerant warm-up) are legal: the split masks quarantined
    // devices and the CPU fallback absorbs the work.
    if (sum > 0.0) {
      for (double& s : shares_) s /= sum;
    }
  } else {
    shares_.assign(n_dev, 0.0);  // cooperative mode tracks no static shares
  }

  // Molecule upload happens on all live devices concurrently; a device
  // already dead under the fault plan is quarantined without an upload.
  std::vector<double> before(n_dev);
  for (std::size_t d = 0; d < n_dev; ++d) before[d] = rt_.device(static_cast<int>(d)).busy_seconds();
  for (std::size_t d = 0; d < n_dev; ++d) {
    kernels_.emplace_back();
    if (rt_.device(static_cast<int>(d)).is_dead()) {
      quarantine(d);
      continue;
    }
    kernels_.back().emplace(rt_.device(static_cast<int>(d)), atoms, options_.kernel);
  }
  double max_delta = 0.0;
  for (std::size_t d = 0; d < n_dev; ++d) {
    if (quarantined_[d]) continue;
    max_delta = std::max(max_delta,
                         rt_.device(static_cast<int>(d)).busy_seconds() - before[d]);
  }
  node_seconds_ += max_delta;
}

void MultiGpuBatchScorer::quarantine(std::size_t d) {
  if (quarantined_[d]) return;
  quarantined_[d] = true;
  if (d < shares_.size()) shares_[d] = 0.0;
  ++faults_.devices_lost;
  faults_.lost_devices.push_back(static_cast<int>(d));
  if (obs::Observer* o = options_.observer) {
    const gpusim::Device& dev = rt_.device(static_cast<int>(d));
    o->tracer.mark("quarantine", "fault", static_cast<int>(d),
                   static_cast<std::uint64_t>(dev.busy_seconds() * 1e9));
    o->metrics.counter("sched.quarantines").add();
  }
}

void MultiGpuBatchScorer::refresh_alive() {
  alive_.clear();
  for (std::size_t d = 0; d < quarantined_.size(); ++d) {
    if (!quarantined_[d]) alive_.push_back(d);
  }
}

void MultiGpuBatchScorer::credit(std::size_t d, std::size_t done, double seconds) {
  device_confs_[d] += done;
  window_confs_[d] += done;
  window_seconds_[d] += seconds;
}

// launch_slice and run_round are `inline` (defined here, their only user) so
// the compiler folds them into dispatch(): out of line, a cost-only
// synchronous round took ~35% more host time.
inline bool MultiGpuBatchScorer::launch_slice(std::size_t d, int stream, std::size_t count,
                                              double seconds, double& attempt_start) {
  gpusim::DeviceScoringKernel& kern = *kernels_[d];
  return retry_transients(rt_.device(static_cast<int>(d)), stream, options_.faults,
                          options_.observer, faults_, attempt_start,
                          [&] { kern.launch(stream, count, seconds); });
}

inline std::size_t MultiGpuBatchScorer::run_round(std::size_t d, Slice s) {
  gpusim::Device& dev = rt_.device(static_cast<int>(d));
  double start = 0.0;
  bool ok = false;
  try {
    ok = launch_slice(d, gpusim::Device::kDefaultStream, s.count,
                      kernels_[d]->kernel_seconds(s.count), start);
  } catch (const gpusim::DeviceLostError&) {
    // The death stopped the clock at the boundary: the fatal attempt's time
    // up to it is lost with the device.
    dev.sync();
    faults_.time_lost_seconds += dev.busy_seconds() - start;
    return 0;
  }
  dev.sync();
  if (!ok) return 0;
  // The rebalance window sees the attempt that delivered, not the retries.
  credit(d, s.count, dev.busy_seconds() - start);
  return s.count;
}

MultiGpuBatchScorer::PipelinePlan MultiGpuBatchScorer::plan_pipeline(std::size_t d,
                                                                     std::size_t count) {
  const gpusim::Device& dev = rt_.device(static_cast<int>(d));
  const double slowdown = dev.slowdown();
  GuardMemo& memo = guard_memo_[d];
  for (const GuardEntry& e : memo.entries) {
    if (e.count == count && e.slowdown == slowdown) return e.plan;
  }

  // Block-aligned halves of the double buffer: splitting mid-block would
  // change the launch geometry.  Split only when the cost model predicts
  // the pipeline beats a single-shot round for this slice: halving can
  // lose by stretching the kernels (modeled occupancy scales with resident
  // warps per SM, so sub-saturation halves each cost as much as the whole)
  // or by fixed per-op overheads (an extra kernel launch plus doubled
  // transfer latencies) that small slices cannot hide.  The estimate
  // prices both effects directly.
  constexpr double kB2D = gpusim::DeviceScoringKernel::kBytesPerPose;
  const gpusim::DeviceScoringKernel& kern = *kernels_[d];
  const auto wpb = static_cast<std::size_t>(options_.kernel.warps_per_block);
  const std::size_t blocks = (count + wpb - 1) / wpb;
  const double whole_s = kern.kernel_seconds(count);
  PipelinePlan plan{count, whole_s, 0.0};
  if (blocks >= 2) {
    const std::size_t half = std::min(count, (blocks + 1) / 2 * wpb);
    const std::size_t rest = count - half;
    const double half_s = kern.kernel_seconds(half);
    const double rest_s = kern.kernel_seconds(rest);
    const auto tx = [&](double bytes) { return copy_s(dev, bytes); };
    const double single_s = tx(kB2D * static_cast<double>(count)) + whole_s * slowdown +
                            tx(8.0 * static_cast<double>(count));
    // Pipeline shape: h2d(half) ; kernel(half) || h2d(rest) ; kernel(rest)
    // || d2h(half) ; d2h(rest) — the maxes cover transfer-bound slices
    // where a copy outlasts the kernel it hides under.
    const double h2d0 = tx(kB2D * static_cast<double>(half));
    const double k0 = half_s * slowdown;
    const double k1_end =
        h2d0 + std::max(k0, tx(kB2D * static_cast<double>(rest))) + rest_s * slowdown;
    const double split_s =
        std::max(k1_end, h2d0 + k0 + tx(8.0 * static_cast<double>(half))) +
        tx(8.0 * static_cast<double>(rest));
    if (split_s < single_s) plan = {half, half_s, rest_s};
  }
  memo.entries[memo.next] = {count, slowdown, plan};
  memo.next = (memo.next + 1) % memo.entries.size();
  return plan;
}

std::size_t MultiGpuBatchScorer::run_pipeline(std::size_t d, Slice s) {
  gpusim::Device& dev = rt_.device(static_cast<int>(d));
  if (stream_ids_[d][0] < 0) stream_ids_[d] = {dev.create_stream(), dev.create_stream()};
  const int s0 = stream_ids_[d][0];
  const int s1 = stream_ids_[d][1];
  const double before = dev.busy_seconds();
  const double lost_before = faults_.time_lost_seconds;

  constexpr double kB2D = gpusim::DeviceScoringKernel::kBytesPerPose;
  const std::size_t count = s.count;
  const PipelinePlan plan = plan_pipeline(d, count);
  const std::size_t c0 = plan.first;
  const std::size_t c1 = count - c0;

  std::size_t done = 0;  // scores that reached the host
  bool died = false;
  double start = 0.0;  // unused: the pipeline is priced as a whole
  try {
    dev.copy_to_device_async(s0, kB2D * static_cast<double>(c0));
    if (launch_slice(d, s0, c0, plan.first_s, start)) {
      // The first half's scores come home as soon as its kernel ends,
      // riding the d2h engine under the sibling kernel.  A half only
      // counts as done once its scores are on the host: a death before
      // this copy completes loses the scores with the card, and the
      // caller rescores the poses on a survivor.
      dev.copy_from_device_async(s0, 8.0 * static_cast<double>(c0));
      done = c0;
      if (c1 > 0) {
        // The second upload rides s1, overlapping the first half's kernel
        // on s0 (different engines; issue order does not move the virtual
        // start times, which only depend on stream cursors and engines).
        dev.copy_to_device_async(s1, kB2D * static_cast<double>(c1));
        if (launch_slice(d, s1, c1, plan.second_s, start)) {
          // The second half's scores join s0 via a recorded event — the
          // cross-stream dependency.
          dev.wait_event(s0, dev.record_event(s1));
          dev.copy_from_device_async(s0, 8.0 * static_cast<double>(c1));
          done = count;
        }
      }
    }
  } catch (const gpusim::DeviceLostError&) {
    // Death clamps every stream at the boundary (the card fell off the
    // bus); halves that completed before it keep their scores, the caller
    // re-splits the rest across the survivors.
    died = true;
  }
  dev.sync();
  const double delta = dev.busy_seconds() - before;
  if (done > 0) credit(d, done, delta);
  if (died && done == 0) {
    // Nothing was delivered, so the whole pipeline's time is lost with the
    // device.  It already contains the transient attempts and backoffs the
    // retries charged, so it replaces them rather than adding to them.
    faults_.time_lost_seconds = lost_before + delta;
  }
  return done;
}

void MultiGpuBatchScorer::maybe_rebalance() {
  if (options_.dynamic || options_.faults.rebalance_batches == 0) return;
  if (++batches_dispatched_ % options_.faults.rebalance_batches != 0) return;
  refresh_alive();
  if (alive_.size() < 2) return;
  // Only rebalance from a complete observation window: every survivor must
  // have scored something since the last rebalance, else throughputs are
  // not comparable.
  double sum = 0.0;
  for (const std::size_t d : alive_) {
    if (window_confs_[d] == 0 || window_seconds_[d] <= 0.0) return;
    sum += static_cast<double>(window_confs_[d]) / window_seconds_[d];
  }
  for (const std::size_t d : alive_) {
    shares_[d] = static_cast<double>(window_confs_[d]) / window_seconds_[d] / sum;
  }
  ++faults_.rebalances;
  if (obs::Observer* o = options_.observer) {
    o->tracer.mark("rebalance", "sched", obs::kHostTrack,
                   static_cast<std::uint64_t>(node_seconds_ * 1e9));
    o->metrics.counter("sched.rebalances").add();
  }
  std::fill(window_confs_.begin(), window_confs_.end(), 0);
  std::fill(window_seconds_.begin(), window_seconds_.end(), 0.0);
}

std::size_t MultiGpuBatchScorer::run_cpu_tail(std::size_t n, bool overlapped,
                                              double& tail_delta) {
  // CPU tail partition (overlapped mode only): the CPU model takes the
  // batch's last `cpu_tail_share` poses concurrently with the GPU
  // pipelines; the barrier takes max(GPU pipelines, CPU tail).  With no GPU
  // left the whole batch goes through the serialized fallback path
  // instead.
  tail_delta = 0.0;
  if (!overlapped || options_.cpu_tail_share <= 0.0 || alive_.empty()) return n;
  const auto tail = static_cast<std::size_t>(static_cast<double>(n) * options_.cpu_tail_share);
  if (tail == 0) return n;
  cpusim::CpuScoringEngine& cpu = *tail_cpu_;
  const double tail_before = cpu.busy_seconds();
  cpu.score_cost_only(tail);
  tail_delta = cpu.busy_seconds() - tail_before;
  cpu_tail_confs_ += tail;
  if (obs::Observer* o = options_.observer) {
    o->metrics.counter("sched.cpu_tail_poses").add(static_cast<double>(tail));
  }
  return n - tail;
}

void MultiGpuBatchScorer::run_devices(std::size_t n, std::size_t head, bool overlapped) {
  const auto n_dev = kernels_.size();
  if (!overlapped) {
    // Algorithm 2: "Host_To_GPU(Scom, Stmp)" — the whole batch is uploaded
    // to every live GPU before each device launches on its stride.  The
    // pipeline instead uploads per-half inside run_pipeline, hiding the
    // copies behind the sibling half's kernel.
    for (const std::size_t d : alive_) {
      rt_.device(static_cast<int>(d))
          .copy_to_device(gpusim::DeviceScoringKernel::kBytesPerPose * static_cast<double>(n));
    }
  }

  // The one worklist: static shares start from the whole head, the
  // cooperative queue from chunk_blocks-sized chunks.  A failed device is
  // quarantined and its undelivered remainder goes back on the worklist.
  // Capacity bound: each push after the initial slices follows a
  // quarantine, and a device is quarantined at most once ever.
  const auto wpb = static_cast<std::size_t>(options_.kernel.warps_per_block);
  const std::size_t chunk =
      options_.dynamic ? std::max<std::size_t>(1, options_.chunk_blocks) * wpb : head;
  pending_.clear();
  pending_.reserve((head + chunk - 1) / chunk + n_dev);
  for (std::size_t lo = 0; lo < head; lo += chunk) {
    pending_.push_back({lo, std::min(chunk, head - lo)});
  }
  std::reverse(pending_.begin(), pending_.end());  // pop_back walks ascending
  while (!pending_.empty()) {
    const Slice slice = pending_.back();
    pending_.pop_back();
    refresh_alive();
    if (alive_.empty()) {
      if (!options_.cpu_fallback) {
        throw gpusim::AllDevicesLostError(
            "MultiGpuBatchScorer: every device is lost and no CPU fallback is configured");
      }
      faults_.degraded_to_cpu = true;
      cpu_->score_cost_only(slice.count);
      faults_.cpu_fallback_conformations += slice.count;
      if (obs::Observer* o = options_.observer) {
        o->metrics.counter("sched.cpu_fallback_poses").add(static_cast<double>(slice.count));
      }
      continue;
    }
    if (slice.returned) {
      ++faults_.resplits;
      if (obs::Observer* o = options_.observer) {
        o->tracer.mark("resplit", "fault", obs::kHostTrack,
                       static_cast<std::uint64_t>(node_seconds_ * 1e9),
                       {{"poses", static_cast<double>(slice.count)}});
        o->metrics.counter("sched.resplits").add();
      }
    }
    // `alive_` becomes the slice's targets and `counts` their parts.
    const std::span<std::size_t> counts = std::span(counts_).first(alive_.size());
    if (options_.dynamic) {
      const std::size_t d = *std::min_element(alive_.begin(), alive_.end(), [&](auto a, auto b) {
        return rt_.device(static_cast<int>(a)).busy_seconds() <
               rt_.device(static_cast<int>(b)).busy_seconds();
      });
      rt_.device(static_cast<int>(d)).advance_seconds(kPullLatencyS);
      alive_.assign(1, d);
      counts[0] = slice.count;
    } else {
      const std::span<double> weights = std::span(weights_).first(alive_.size());
      std::fill(weights.begin(), weights.end(), 1.0);
      double wsum = 0.0;
      for (const std::size_t d : alive_) wsum += shares_[d];
      if (wsum > 0.0) {
        for (std::size_t i = 0; i < alive_.size(); ++i) weights[i] = shares_[alive_[i]];
      }
      split_batch_into(slice.count, options_.kernel.warps_per_block, weights, counts);
    }
    std::size_t offset = slice.offset;
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (counts[i] == 0) continue;
      const std::size_t d = alive_[i];
      const Slice assigned{offset, counts[i]};
      const std::size_t done = overlapped ? run_pipeline(d, assigned) : run_round(d, assigned);
      if (done < assigned.count) {
        // Delivered poses stay with this device; the rest goes back.
        quarantine(d);
        pending_.push_back({offset + done, assigned.count - done, true});
      }
      offset += counts[i];
    }
  }

  if (!overlapped) {
    // "GPU_To_Host(Scom, Stmp)": each device returns the scores it
    // produced.  The pipeline downloaded them inside run_pipeline.
    for (std::size_t d = 0; d < n_dev; ++d) {
      const std::size_t scored = device_confs_[d] - confs_before_[d];
      if (scored > 0) {
        rt_.device(static_cast<int>(d)).copy_from_device(8.0 * static_cast<double>(scored));
      }
    }
  }
}

bool MultiGpuBatchScorer::settled() const {
  if (!options_.overlap || options_.dynamic || options_.observer != nullptr || faults_.any()) {
    return false;
  }
  for (std::size_t d = 0; d < kernels_.size(); ++d) {
    const gpusim::Device& dev = rt_.device(static_cast<int>(d));
    if (dev.observer() != nullptr || !dev.fault().benign()) return false;
  }
  return true;
}

std::size_t MultiGpuBatchScorer::replay_slot(std::size_t n) const {
  std::size_t slot = 0;
  while (slot < kReplaySlots && replay_n_[slot] != n) ++slot;
  return slot;
}

void MultiGpuBatchScorer::record_devices(std::size_t n) {
  const auto n_dev = kernels_.size();
  const std::size_t slot = replay_next_;
  replay_next_ = (replay_next_ + 1) % kReplaySlots;
  replay_n_[slot] = n;
  for (std::size_t d = 0; d < n_dev; ++d) {
    replay_steps_[slot * n_dev + d] = {
        rt_.device(static_cast<int>(d)).tally().since(tally_before_[d]),
        device_confs_[d] - confs_before_[d]};
  }
}

std::size_t MultiGpuBatchScorer::replay_run(std::span<const std::size_t> batches,
                                            std::size_t scale) {
  if (!settled()) return 0;
  const auto n_dev = kernels_.size();
  for (std::size_t d = 0; d < n_dev; ++d) {
    const gpusim::Device& dev = rt_.device(static_cast<int>(d));
    replay_clock_[d] = {dev.tally().ns, dev.busy_seconds()};
  }
  // Batches replayed per slot: a settled batch adds the same whole
  // nanoseconds, kernels, launches, bytes and poses to each device wherever
  // it starts (DESIGN.md §13.2), so k of them add k times the step.
  std::array<std::uint64_t, kReplaySlots> runs{};
  refresh_alive();
  const double cpu_before = cpu_ ? cpu_->busy_seconds() : 0.0;
  // run_cpu_tail and maybe_rebalance do nothing without a tail share or a
  // rebalance period, so the loop skips their calls then.
  const bool tail = options_.cpu_tail_share > 0.0;
  const bool rebalancing = options_.faults.rebalance_batches != 0;
  std::size_t i = 0;
  while (i < batches.size()) {
    const std::size_t n = batches[i] * scale;
    if (n == 0) {
      ++i;  // an empty batch dispatches nothing
      continue;
    }
    const std::size_t slot = replay_slot(n);
    if (slot == kReplaySlots) break;
    ++runs[slot];
    ++i;
    // What run_batch does for this batch, from the same operands in the
    // same order: the tail step, each device's busy-second delta (as
    // VirtualClock::seconds() computes it) for its credit and the barrier,
    // the node time and the rebalance window.
    double tail_delta = 0.0;
    if (tail) run_cpu_tail(n, /*overlapped=*/true, tail_delta);
    const DeviceStep* step = &replay_steps_[slot * n_dev];
    double max_delta = 0.0;
    for (std::size_t d = 0; d < n_dev; ++d) {
      ReplayClock& clock = replay_clock_[d];
      clock.ns += step[d].tally.ns;
      const double after = static_cast<double>(clock.ns) * 1e-9;
      const double delta = after - clock.seconds;
      clock.seconds = after;
      max_delta = std::max(max_delta, delta);
      if (step[d].poses > 0) credit(d, step[d].poses, delta);
    }
    node_seconds_ += std::max(max_delta, tail_delta);
    if (cpu_) node_seconds_ += cpu_->busy_seconds() - cpu_before;
    if (rebalancing) {
      maybe_rebalance();
      // A rebalance is the one thing in the run that can unsettle the
      // scorer.
      if (faults_.any()) break;
    }
  }

  for (std::size_t d = 0; d < n_dev; ++d) {
    gpusim::DeviceTally total;
    for (std::size_t s = 0; s < kReplaySlots; ++s) {
      const DeviceStep& step = replay_steps_[s * n_dev + d];
      total.kernels += runs[s] * step.tally.kernels;
      total.launches += runs[s] * step.tally.launches;
      total.bytes += static_cast<double>(runs[s]) * step.tally.bytes;
    }
    gpusim::Device& dev = rt_.device(static_cast<int>(d));
    total.ns = replay_clock_[d].ns - dev.tally().ns;
    dev.replay(total);
  }
  return i;
}

void MultiGpuBatchScorer::dispatch(std::span<const std::size_t> batches, std::size_t scale) {
  std::size_t i = 0;
  while (i < batches.size()) {
    i += replay_run(batches.subspan(i), scale);
    if (i < batches.size()) run_batch(batches[i++] * scale);
  }
}

void MultiGpuBatchScorer::run_batch(std::size_t n) {
  if (n == 0) return;
  const double batch_start_s = node_seconds_;
  const auto n_dev = kernels_.size();
  for (std::size_t d = 0; d < n_dev; ++d) {
    busy_before_[d] = rt_.device(static_cast<int>(d)).busy_seconds();
  }
  const double cpu_before = cpu_ ? cpu_->busy_seconds() : 0.0;
  // The device step: Algorithm 2's synchronous round, or the pipeline.
  const bool overlapped = options_.overlap && !options_.dynamic;
  refresh_alive();
  double tail_delta = 0.0;
  const std::size_t head = run_cpu_tail(n, overlapped, tail_delta);
  std::copy(device_confs_.begin(), device_confs_.end(), confs_before_.begin());

  // The first settled batch of each size records what it adds to each
  // device, so later ones replay (replay_run).  A quarantine or a
  // rebalance makes faults_.any() true, which ends replay for the
  // scorer's life.
  const bool settled_batch = settled();
  if (settled_batch) {
    for (std::size_t d = 0; d < n_dev; ++d) {
      tally_before_[d] = rt_.device(static_cast<int>(d)).tally();
    }
  }
  run_devices(n, head, overlapped);
  if (settled_batch && !faults_.any()) record_devices(n);

  double max_delta = 0.0;
  for (std::size_t d = 0; d < n_dev; ++d) {
    max_delta = std::max(max_delta,
                         rt_.device(static_cast<int>(d)).busy_seconds() - busy_before_[d]);
  }
  // The CPU tail ran concurrently with the GPU pipelines: the batch costs
  // the slower of the two.
  node_seconds_ += std::max(max_delta, tail_delta);
  // CPU fallback work happens after the failure is detected, so it
  // serializes behind the surviving devices' barrier.
  if (cpu_) node_seconds_ += cpu_->busy_seconds() - cpu_before;

  if (overlapped) {
    if (obs::Observer* o = options_.observer) {
      // Counterfactual: what the fully synchronous Algorithm 2 round would
      // have cost the barrier — whole-head upload, one kernel over the
      // device's scored poses, score download — maximized over the
      // participants.  The clamp keeps fault-path noise out of the counter.
      double serial_max = 0.0;
      for (std::size_t d = 0; d < n_dev; ++d) {
        const std::size_t scored = device_confs_[d] - confs_before_[d];
        if (scored == 0) continue;
        gpusim::Device& dev = rt_.device(static_cast<int>(d));
        const double serial_d =
            copy_s(dev, gpusim::DeviceScoringKernel::kBytesPerPose * static_cast<double>(head)) +
            kernels_[d]->kernel_seconds(scored) * dev.slowdown() +
            copy_s(dev, 8.0 * static_cast<double>(scored));
        serial_max = std::max(serial_max, serial_d);
      }
      const double saved = serial_max - std::max(max_delta, tail_delta);
      if (saved > 0.0) o->metrics.counter("sched.overlap.saved_seconds").add(saved);
    }
  }

  if (obs::Observer* o = options_.observer) {
    obs::Span s;
    s.name = "batch";
    s.category = "sched";
    s.device = obs::kHostTrack;
    s.start_ns = static_cast<std::uint64_t>(batch_start_s * 1e9);
    s.dur_ns = static_cast<std::uint64_t>((node_seconds_ - batch_start_s) * 1e9);
    s.args = {{"poses", static_cast<double>(n)}};
    o->tracer.record(std::move(s));
    o->metrics.counter("sched.batches").add();
    o->metrics.histogram("sched.batch_barrier_seconds").record(node_seconds_ - batch_start_s);
  }

  maybe_rebalance();
}

void MultiGpuBatchScorer::evaluate(std::span<const scoring::Pose> poses,
                                   std::span<double> out) {
  if (poses.size() != out.size()) {
    throw std::invalid_argument("MultiGpuBatchScorer::evaluate: size mismatch");
  }
  const util::ScopedSerial own(serial_);
  if (!host_) throw std::logic_error("MultiGpuBatchScorer: cost-only, it scores nothing");
  const std::size_t n = poses.size();
  dispatch({&n, 1}, 1);
  host_->score(poses, out, rt_.device(0).observer());
}

void MultiGpuBatchScorer::evaluate_cost_only(std::size_t n) {
  const util::ScopedSerial own(serial_);
  dispatch({&n, 1}, 1);
}

void MultiGpuBatchScorer::evaluate_cost_only(std::span<const std::size_t> batches,
                                             std::size_t scale) {
  const util::ScopedSerial own(serial_);
  dispatch(batches, scale);
}

}  // namespace metadock::sched
