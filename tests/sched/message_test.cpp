#include "sched/message.h"

#include <gtest/gtest.h>

namespace metadock::sched {
namespace {

TEST(Message, TimeIsLatencyPlusBandwidthTable) {
  // Rows at the fixed interconnect: 50 us latency, 5 GB/s.
  struct Case {
    double bytes;
    double expect_s;
  };
  const Case cases[] = {
      // Zero payload costs exactly one latency.
      {0.0, 50e-6},
      // 5 GB at 5 GB/s is one second plus latency.
      {5e9, 1.0 + 50e-6},
      // Control message: latency-dominated.
      {kControlBytes, 50e-6 + 64.0 / 5e9},
      // Receptor broadcast: bandwidth already matters.
      {1e6, 50e-6 + 2e-4},
      // Bulk payload: bandwidth-dominated.
      {1e9, 50e-6 + 0.2},
  };
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(message_time_s(c.bytes), c.expect_s) << "bytes=" << c.bytes;
  }
}

TEST(Message, TimeIsMonotoneInBytes) {
  double prev = -1.0;
  for (double bytes : {0.0, 64.0, 1024.0, 65536.0, 1e6, 1e9}) {
    const double t = message_time_s(bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Message, PayloadHelpersScaleWithScience) {
  EXPECT_DOUBLE_EQ(receptor_payload_bytes(1000), 17e3);
  EXPECT_DOUBLE_EQ(ligand_payload_bytes(0), 64.0);
  EXPECT_DOUBLE_EQ(ligand_payload_bytes(20), 64.0 + 480.0);
  EXPECT_DOUBLE_EQ(handoff_state_bytes(0), 128.0);
  EXPECT_DOUBLE_EQ(handoff_state_bytes(256), 128.0 + 36.0 * 256.0);
}

TEST(Message, EveryKindHasAName) {
  for (std::size_t k = 0; k < kMessageKindCount; ++k) {
    EXPECT_NE(message_name(static_cast<MessageKind>(k)), "unknown");
  }
}

TEST(Message, StatsAccumulatePerKind) {
  MessageStats stats;
  stats.record(MessageKind::kDispatch, 0.25);
  stats.record(MessageKind::kDispatch, 0.50);
  stats.record(MessageKind::kResultReturn, 0.125);
  EXPECT_EQ(stats.of(MessageKind::kDispatch).count, 2u);
  EXPECT_DOUBLE_EQ(stats.of(MessageKind::kDispatch).seconds, 0.75);
  EXPECT_EQ(stats.of(MessageKind::kResultReturn).count, 1u);
  EXPECT_EQ(stats.of(MessageKind::kStealRequest).count, 0u);
  EXPECT_EQ(stats.total_count(), 3u);
  EXPECT_DOUBLE_EQ(stats.total_seconds(), 0.875);
}

}  // namespace
}  // namespace metadock::sched
