// Stream/event semantics of the virtual device: per-stream timelines,
// engine contention, event ordering (sync-after-record observes prior
// work; cross-stream wait_event is transitive), per-stream fault
// semantics, the reuse-after-reset regression for fault plans, and replay
// of a recorded fault-free op sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/device_db.h"
#include "gpusim/fault_plan.h"
#include "gpusim/runtime.h"
#include "util/rng.h"

namespace metadock::gpusim {
namespace {

KernelLaunch small_launch() {
  KernelLaunch l;
  l.grid_blocks = 64;
  l.block_threads = 128;
  return l;
}

KernelCost small_cost() {
  KernelCost c;
  c.flops = 2e9;
  c.global_bytes = 1e7;
  return c;
}

TEST(Stream, CreateStreamStartsAtTheCurrentClock) {
  Device dev(geforce_gtx580());
  EXPECT_EQ(dev.stream_count(), 1);  // the default stream always exists
  dev.launch(small_launch(), small_cost());
  const int s = dev.create_stream();
  EXPECT_EQ(s, 1);
  EXPECT_EQ(dev.stream_count(), 2);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s), dev.busy_seconds());
}

TEST(Stream, BadStreamIdThrows) {
  Device dev(geforce_gtx580());
  EXPECT_THROW(dev.launch_async(3, small_launch(), small_cost()), std::out_of_range);
  EXPECT_THROW((void)dev.stream_seconds(-1), std::out_of_range);
  EXPECT_THROW((void)dev.record_event(7), std::out_of_range);
}

TEST(Stream, SyncAfterRecordObservesPriorWork) {
  // An event recorded after async work snapshots the stream's cursor; a
  // device sync may never land the clock before that point.
  Device dev(geforce_gtx580());
  const int s = dev.create_stream();
  dev.copy_to_device_async(s, 1e6);
  dev.launch_async(s, small_launch(), small_cost());
  const Event e = dev.record_event(s);
  EXPECT_GT(e.ns, 0u);
  // Async work has not touched the device clock yet...
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
  dev.sync();
  // ...but the sync observes everything the event covers.
  EXPECT_GE(dev.busy_seconds(), static_cast<double>(e.ns) * 1e-9);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s), dev.busy_seconds());
}

TEST(Stream, WaitEventOrdersAcrossStreamsTransitively) {
  // s1 -- e1 --> s2 -- e2 --> s3: work on s3 may not start before the
  // point e1 recorded on s1, even though s3 never waited on e1 directly.
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  const int s3 = dev.create_stream();

  dev.copy_to_device_async(s1, 4e6);
  const Event e1 = dev.record_event(s1);

  dev.wait_event(s2, e1);
  EXPECT_GE(dev.record_event(s2).ns, e1.ns);
  dev.copy_to_device_async(s2, 4e6);
  const Event e2 = dev.record_event(s2);
  EXPECT_GT(e2.ns, e1.ns);  // s2's own work extends past the awaited point

  dev.wait_event(s3, e2);
  const Event e3 = dev.record_event(s3);
  EXPECT_GE(e3.ns, e2.ns);
  EXPECT_GE(e3.ns, e1.ns);  // transitivity through e2
}

TEST(Stream, WaitEventNeverRewindsAStream) {
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.launch_async(s2, small_launch(), small_cost());
  const std::uint64_t before = dev.record_event(s2).ns;
  // e1 is in s2's past: waiting on it must be a no-op.
  const Event e1 = dev.record_event(s1);
  ASSERT_LT(e1.ns, before);
  dev.wait_event(s2, e1);
  EXPECT_EQ(dev.record_event(s2).ns, before);
}

TEST(Stream, SameDirectionCopiesSerializeOnTheEngine) {
  // Two H2D copies on different streams share one PCIe engine: the second
  // queues behind the first exactly.
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.copy_to_device_async(s1, 8e6);
  const double t1 = dev.stream_seconds(s1);
  ASSERT_GT(t1, 0.0);
  dev.copy_to_device_async(s2, 8e6);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s2), 2.0 * t1);
}

TEST(Stream, OppositeDirectionCopiesRunFullDuplex) {
  // H2D and D2H have their own engines: concurrent opposite-direction
  // copies finish together instead of queueing.
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.copy_to_device_async(s1, 8e6);
  dev.copy_from_device_async(s2, 8e6);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s1), dev.stream_seconds(s2));
  dev.sync();
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), dev.stream_seconds(s1));
}

TEST(Stream, CopiesOverlapComputeOnSiblingStreams) {
  // The latency-hiding primitive the scheduler builds on: an H2D on one
  // stream rides under a kernel on another, so the synced clock is the max
  // of the two, not the sum.
  Device dev(geforce_gtx580());
  const int sk = dev.create_stream();
  const int sc = dev.create_stream();
  dev.launch_async(sk, small_launch(), small_cost());
  dev.copy_to_device_async(sc, 4e6);
  const double kernel_s = dev.stream_seconds(sk);
  const double copy_s = dev.stream_seconds(sc);
  ASSERT_GT(kernel_s, 0.0);
  ASSERT_GT(copy_s, 0.0);
  dev.sync();
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), std::max(kernel_s, copy_s));
}

TEST(Stream, SynchronousApiIsAsyncOnDefaultStreamPlusSync) {
  // Legacy callers must see bit-identical clocks: the synchronous API is
  // defined as async-on-stream-0 followed by a device sync.
  Device sync_dev(tesla_k40c());
  Device async_dev(tesla_k40c());

  sync_dev.copy_to_device(5e6);
  sync_dev.launch(small_launch(), small_cost());
  sync_dev.copy_from_device(2e6);

  async_dev.copy_to_device_async(Device::kDefaultStream, 5e6);
  async_dev.sync();
  async_dev.launch_async(Device::kDefaultStream, small_launch(), small_cost());
  async_dev.sync();
  async_dev.copy_from_device_async(Device::kDefaultStream, 2e6);
  async_dev.sync();

  EXPECT_DOUBLE_EQ(sync_dev.busy_seconds(), async_dev.busy_seconds());
  EXPECT_DOUBLE_EQ(sync_dev.bytes_transferred(), async_dev.bytes_transferred());
}

TEST(Stream, AdvanceStreamSecondsStallsOnlyThatStream) {
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.advance_stream_seconds(s1, 0.25);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s1), 0.25);
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s2), 0.0);
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
  dev.sync();
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.25);
}

TEST(Stream, RandomOpSequencesKeepTimelinesMonotone) {
  // Property suite: under arbitrary interleavings of launches, copies,
  // records, waits and syncs across three streams, (a) no stream cursor
  // ever goes backwards, (b) wait_event establishes cursor >= event, and
  // (c) sync lands the clock at the max over all timelines and re-aligns
  // every stream to it.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Device dev(seed % 2 == 0 ? geforce_gtx580() : tesla_k40c());
    std::vector<int> streams = {Device::kDefaultStream, dev.create_stream(),
                                dev.create_stream()};
    std::vector<Event> events;
    util::Xoshiro256 rng(seed);
    const auto pick = [&rng](int n) {  // uniform int in [0, n)
      return std::min(n - 1, static_cast<int>(rng.uniform() * n));
    };
    for (int op = 0; op < 60; ++op) {
      const int s = streams[static_cast<std::size_t>(pick(3))];
      const std::uint64_t before = dev.record_event(s).ns;
      switch (pick(6)) {
        case 0:
          dev.launch_async(s, small_launch(), small_cost());
          break;
        case 1:
          dev.copy_to_device_async(s, 1e6 * static_cast<double>(1 + pick(4)));
          break;
        case 2:
          dev.copy_from_device_async(s, 1e6 * static_cast<double>(1 + pick(4)));
          break;
        case 3:
          events.push_back(dev.record_event(s));
          break;
        case 4:
          if (!events.empty()) {
            const Event& e = events[static_cast<std::size_t>(
                pick(static_cast<int>(events.size())))];
            dev.wait_event(s, e);
            ASSERT_GE(dev.record_event(s).ns, e.ns) << "seed " << seed << " op " << op;
          }
          break;
        default: {
          std::uint64_t horizon = 0;
          for (const int t : streams) horizon = std::max(horizon, dev.record_event(t).ns);
          dev.sync();
          const std::uint64_t now = static_cast<std::uint64_t>(dev.busy_seconds() * 1e9 + 0.5);
          EXPECT_GE(now, horizon) << "seed " << seed << " op " << op;
          for (const int t : streams) {
            EXPECT_DOUBLE_EQ(dev.stream_seconds(t), dev.busy_seconds())
                << "seed " << seed << " op " << op;
          }
          break;
        }
      }
      ASSERT_GE(dev.record_event(s).ns, before) << "seed " << seed << " op " << op;
    }
  }
}

/// A fault-free op sequence over the default stream and streams 1 and 2,
/// ending in sync().
void run_ops(Device& dev, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto pick = [&rng](int n) {  // uniform int in [0, n)
    return std::min(n - 1, static_cast<int>(rng.uniform() * n));
  };
  std::vector<Event> events;
  for (int op = 0; op < 40; ++op) {
    const int s = pick(3);
    switch (pick(5)) {
      case 0:
        dev.launch_async(s, small_launch(), small_cost());
        break;
      case 1:
        dev.copy_to_device_async(s, 28.0 * static_cast<double>(1 + pick(5000)));
        break;
      case 2:
        dev.copy_from_device_async(s, 8.0 * static_cast<double>(1 + pick(5000)));
        break;
      case 3:
        events.push_back(dev.record_event(s));
        break;
      default:
        if (!events.empty()) {
          dev.wait_event(s, events[static_cast<std::size_t>(
                                pick(static_cast<int>(events.size())))]);
        }
        break;
    }
  }
  dev.sync();
}

TEST(Stream, ReplayAddsWhatTheOpsAddedWhereverTheyStart) {
  // Every timeline counts whole nanoseconds, so a fault-free op sequence
  // issued on a synced device adds the same tally at any start time, and
  // replay() of that tally leaves the device exactly where the ops do.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const DeviceSpec spec = seed % 2 == 0 ? geforce_gtx580() : tesla_k40c();
    const auto synced_at = [&spec](double start_s) {
      Device dev(spec);
      (void)dev.create_stream();
      (void)dev.create_stream();
      dev.advance_seconds(start_s);
      return dev;
    };
    Device early = synced_at(0.001234567);
    const DeviceTally early_before = early.tally();
    run_ops(early, seed);
    const DeviceTally delta = early.tally().since(early_before);
    EXPECT_GT(delta.ns, 0u) << "seed " << seed;

    Device late = synced_at(12.345678901);
    const DeviceTally late_before = late.tally();
    run_ops(late, seed);
    const DeviceTally late_delta = late.tally().since(late_before);
    EXPECT_EQ(late_delta.ns, delta.ns) << "seed " << seed;
    EXPECT_EQ(late_delta.kernels, delta.kernels) << "seed " << seed;
    EXPECT_EQ(late_delta.launches, delta.launches) << "seed " << seed;
    EXPECT_EQ(late_delta.bytes, delta.bytes) << "seed " << seed;

    Device replayed = synced_at(12.345678901);
    replayed.replay(delta);
    EXPECT_EQ(replayed.busy_seconds(), late.busy_seconds()) << "seed " << seed;
    EXPECT_EQ(replayed.kernels_launched(), late.kernels_launched()) << "seed " << seed;
    EXPECT_EQ(replayed.bytes_transferred(), late.bytes_transferred()) << "seed " << seed;
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(replayed.stream_seconds(s), late.stream_seconds(s)) << "seed " << seed;
    }
    // Both go on alike: every timeline was re-aligned to the clock.
    for (Device* dev : {&replayed, &late}) {
      dev->copy_to_device_async(1, 2800.0);
      dev->launch_async(2, small_launch(), small_cost());
      dev->sync();
    }
    EXPECT_EQ(replayed.busy_seconds(), late.busy_seconds()) << "seed " << seed;
  }
}

TEST(StreamFaults, DeathClampsAllStreamsAtTheBoundary) {
  // A card falling off the bus stops every stream: no timeline may show
  // progress past the death boundary, including siblings with in-flight
  // work and the engine-merged clock.
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.copy_to_device_async(s2, 1e5);  // sibling in-flight work, pre-death

  DeviceFaultSpec f;
  f.death_at_seconds = 1e-4;
  dev.set_fault(f, 1);
  KernelCost big;
  big.flops = 1e12;  // crosses the boundary mid-kernel
  EXPECT_THROW(dev.launch_async(s1, small_launch(), big), DeviceLostError);
  EXPECT_TRUE(dev.is_dead());
  EXPECT_NEAR(dev.stream_seconds(s1), f.death_at_seconds, 1e-9);
  EXPECT_NEAR(dev.stream_seconds(s2), f.death_at_seconds, 1e-9);
  dev.sync();
  EXPECT_NEAR(dev.busy_seconds(), f.death_at_seconds, 1e-9);
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), dev.stream_seconds(s1));
  // Every stream is dead, not just the one that hit the boundary.
  EXPECT_THROW(dev.launch_async(s2, small_launch(), small_cost()), DeviceLostError);
  EXPECT_THROW(dev.copy_to_device_async(s2, 1.0), DeviceLostError);
}

TEST(StreamFaults, TransientFailsOnlyTheLaunchingStream) {
  Device dev(geforce_gtx580());
  const int s1 = dev.create_stream();
  const int s2 = dev.create_stream();
  dev.copy_to_device_async(s2, 2e6);
  const double sibling_before = dev.stream_seconds(s2);

  DeviceFaultSpec f;
  f.transient_probability = 1.0;
  dev.set_fault(f, 3);
  EXPECT_THROW(dev.launch_async(s1, small_launch(), small_cost()), TransientFaultError);
  EXPECT_EQ(dev.transient_faults_injected(), 1u);
  EXPECT_FALSE(dev.is_dead());
  // The failed launch still occupied its own stream (the time is lost)...
  EXPECT_GT(dev.stream_seconds(s1), 0.0);
  // ...but the sibling keeps its in-flight copy untouched.
  EXPECT_DOUBLE_EQ(dev.stream_seconds(s2), sibling_before);
}

TEST(StreamFaults, ResetRestoresFreshlyConstructedState) {
  // Reuse-after-reset regression: a reset device must not remember its
  // fault plan (death time, seed) or its extra streams.
  Device dev(geforce_gtx580());
  (void)dev.create_stream();
  DeviceFaultSpec f;
  f.death_at_seconds = 1e-4;
  f.transient_probability = 0.5;
  dev.set_fault(f, 99);
  KernelCost big;
  big.flops = 1e12;
  EXPECT_THROW(dev.launch(small_launch(), big), DeviceLostError);
  ASSERT_TRUE(dev.is_dead());

  dev.reset();
  EXPECT_EQ(dev.stream_count(), 1);
  EXPECT_FALSE(dev.is_dead());
  EXPECT_TRUE(dev.fault().benign());
  EXPECT_DOUBLE_EQ(dev.busy_seconds(), 0.0);
  EXPECT_EQ(dev.kernels_launched(), 0u);
  EXPECT_EQ(dev.transient_faults_injected(), 0u);
  // The old death boundary is gone: the same launch that killed the device
  // now runs to completion, well past the former death time.
  dev.launch(small_launch(), big);
  EXPECT_GT(dev.busy_seconds(), f.death_at_seconds);
  EXPECT_EQ(dev.kernels_launched(), 1u);
}

TEST(StreamFaults, RuntimeResetReattachesThePlanAndTheFaultsRepeat) {
  // Runtime::reset_all is a fresh run under the SAME plan: the seeded
  // fault sequence must replay identically, launch for launch.
  FaultPlan plan(21);
  plan.transient(0, 0.35);
  Runtime rt({geforce_gtx580()}, plan);

  const auto run_epoch = [&rt] {
    std::vector<int> failed_launches;
    for (int i = 0; i < 24; ++i) {
      try {
        rt.device(0).launch(small_launch(), small_cost());
      } catch (const TransientFaultError&) {
        failed_launches.push_back(i);
      }
    }
    return failed_launches;
  };

  const std::vector<int> first = run_epoch();
  ASSERT_FALSE(first.empty());  // p=0.35 over 24 launches: the seed fires
  const double first_clock = rt.device(0).busy_seconds();

  rt.reset_all();
  EXPECT_DOUBLE_EQ(rt.device(0).busy_seconds(), 0.0);
  EXPECT_FALSE(rt.device(0).fault().benign());  // plan re-attached, not wiped
  const std::vector<int> second = run_epoch();
  EXPECT_EQ(first, second);
  EXPECT_DOUBLE_EQ(rt.device(0).busy_seconds(), first_clock);
}

}  // namespace
}  // namespace metadock::gpusim
