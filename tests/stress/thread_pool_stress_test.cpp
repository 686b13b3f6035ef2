// Race-stress harness for util::ThreadPool (run under the tsan preset;
// also part of the plain-test tier so the interleavings stay exercised).
//
// Targets the state the pool guards: the one call slot that concurrent
// callers take turns on (body, range, chunk cursor, chunks left, first
// exception).  The regression tests lock in the exception routing: an
// exception thrown inside one caller's parallel_for must surface at that
// caller only, never at a concurrent one or at a later call.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace metadock::util {
namespace {

TEST(ThreadPoolStress, ConcurrentParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  constexpr std::size_t kCallers = 8;
  constexpr std::size_t kItems = 2048;
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kItems, 0));
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &hits, c] {
        pool.parallel_for(kItems, [&hits, c](std::size_t i) { ++hits[c][i]; });
      });
    }
    for (auto& t : callers) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      const long total = std::accumulate(hits[c].begin(), hits[c].end(), 0L);
      ASSERT_EQ(total, static_cast<long>(kItems)) << "caller " << c << " round " << round;
    }
  }
}

TEST(ThreadPoolStress, ExceptionRoutesToTheCallerWhoseFnThrew) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> benign_errors{0};
    std::atomic<int> thrower_errors{0};
    std::thread thrower([&] {
      try {
        pool.parallel_for(256, [](std::size_t i) {
          if (i == 97) throw std::runtime_error("stress: injected");
        });
      } catch (const std::runtime_error&) {
        thrower_errors.fetch_add(1);
      }
    });
    std::thread benign([&] {
      try {
        pool.parallel_for(256, [](std::size_t) {});
      } catch (...) {
        benign_errors.fetch_add(1);
      }
    });
    thrower.join();
    benign.join();
    ASSERT_EQ(thrower_errors.load(), 1) << "round " << round;
    ASSERT_EQ(benign_errors.load(), 0) << "round " << round;
  }
}

TEST(ThreadPoolStress, ThrowingFnDoesNotPoisonLaterParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(128, [](std::size_t i) {
        if (i == 0) throw std::runtime_error("stress: injected");
      }),
      std::runtime_error);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(128, [&sum](std::size_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 128u * 127u / 2);
}

TEST(ThreadPoolStress, GlobalPoolSurvivesConcurrentCallers) {
  // The production call sites (the host scoring pass, perfbench's
  // standalone loop) share ThreadPool::global(); hammer it the same way.
  constexpr std::size_t kCallers = 6;
  std::vector<std::size_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sums, c] {
      std::vector<std::size_t> local(512, 0);
      ThreadPool::global().parallel_for(512, [&local](std::size_t i) { local[i] = i + 1; });
      sums[c] = std::accumulate(local.begin(), local.end(), std::size_t{0});
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c], 512u * 513u / 2) << "caller " << c;
  }
}

}  // namespace
}  // namespace metadock::util
