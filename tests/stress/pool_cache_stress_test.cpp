// Race-stress harness for the allocation layer of the hot loop:
// util::Arena / thread_arena(), whose safety story is thread confinement —
// each thread churns its own arena, so TSan proves the claim that no
// cross-thread access exists rather than that locks cover it.  Runs in the
// plain tier and as the race gate under the tsan preset (`ctest -L stress`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/pool.h"

namespace metadock {
namespace {

TEST(PoolCacheStress, PerThreadArenasChurnIndependently) {
  // Every thread hammers its own thread_arena() through nested scopes
  // while the others do the same: thread confinement means TSan must see
  // zero shared accesses, and the contents stay exactly per-thread.
  constexpr std::size_t kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&bad, t] {
      util::Arena& arena = util::thread_arena();
      for (int round = 0; round < kRounds; ++round) {
        util::ArenaScope outer(arena);
        const std::span<std::uint64_t> mine = arena.make_span<std::uint64_t>(256);
        for (std::size_t i = 0; i < mine.size(); ++i) mine[i] = t * 1000 + i;
        {
          util::ArenaScope inner(arena);
          const std::span<std::uint64_t> scratch = arena.make_span<std::uint64_t>(1024);
          for (std::size_t i = 0; i < scratch.size(); ++i) scratch[i] = ~0ULL;
        }
        // The inner scope's churn must not have touched our span.
        for (std::size_t i = 0; i < mine.size(); ++i) {
          if (mine[i] != t * 1000 + i) bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0u);
}

}  // namespace
}  // namespace metadock
