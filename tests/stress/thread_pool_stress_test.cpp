// Race-stress harness for util::ThreadPool (run under the tsan preset;
// also part of the plain-test tier so the interleavings stay exercised).
//
// Targets the state the pool guards: the one call slot that concurrent
// callers take turns on (body, range, call number, joined workers, first
// exception) and the index cursor the caller and the workers claim from.
// The regression tests lock in the exception routing: an exception thrown
// inside one caller's parallel_for must surface at that caller only, never
// at a concurrent one or at a later call.  Every caller works on its own
// call, so no index of one caller may run on another caller's thread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
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

TEST(ThreadPoolStress, ConcurrentCallersRunOnlyTheirOwnIndices) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kItems = 512;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::thread::id> callers(kCallers);
    std::vector<std::vector<std::thread::id>> ran_on(kCallers,
                                                     std::vector<std::thread::id>(kItems));
    std::vector<std::thread> threads;
    threads.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
      threads.emplace_back([&, c] {
        callers[c] = std::this_thread::get_id();
        pool.parallel_for(kItems, [&, c](std::size_t i) { ran_on[c][i] = std::this_thread::get_id(); });
      });
    }
    for (auto& t : threads) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) {
      for (std::size_t i = 0; i < kItems; ++i) {
        ASSERT_NE(ran_on[c][i], std::thread::id()) << "caller " << c << " index " << i;
        for (std::size_t other = 0; other < kCallers; ++other) {
          if (other == c) continue;
          ASSERT_NE(ran_on[c][i], callers[other])
              << "caller " << c << " index " << i << " ran on caller " << other;
        }
      }
    }
  }
}

TEST(ThreadPoolStress, NestedCallsFromConcurrentCallersRunInline) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  std::atomic<int> strays{0};
  std::atomic<int> nested{0};
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        pool.parallel_for(16, [&](std::size_t) {
          const std::thread::id outer = std::this_thread::get_id();
          pool.parallel_for(8, [&](std::size_t) {
            if (std::this_thread::get_id() != outer) strays.fetch_add(1);
            nested.fetch_add(1);
          });
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(strays.load(), 0);
  EXPECT_EQ(nested.load(), static_cast<int>(kCallers) * 20 * 16 * 8);
}

TEST(ThreadPoolStress, ExceptionOnACallersOwnIndexRoutesToThatCaller) {
  // Each caller throws from the first index it runs itself; until then the
  // indices run elsewhere wait (at most 10 s from the call's first index),
  // so every caller gets to throw.
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  std::vector<std::string> caught(kCallers);
  std::vector<std::thread> threads;
  threads.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    threads.emplace_back([&, c] {
      const std::thread::id self = std::this_thread::get_id();
      std::atomic<bool> thrown{false};
      std::once_flag started;
      std::chrono::steady_clock::time_point deadline;
      try {
        pool.parallel_for(64, [&](std::size_t) {
          std::call_once(started, [&] {
            deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          });
          if (std::this_thread::get_id() == self) {
            if (!thrown.exchange(true)) throw std::runtime_error("caller " + std::to_string(c));
            return;
          }
          while (!thrown.load() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        });
      } catch (const std::runtime_error& e) {
        caught[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(caught[c], "caller " + std::to_string(c));
  }
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
