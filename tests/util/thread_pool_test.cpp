#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace metadock::util {
namespace {

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
}

TEST(ThreadPool, ReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 250);
}

TEST(ThreadPool, GlobalIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, ThrowingParallelForPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::logic_error("index 37");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, FirstExceptionWinsAndCarriesItsMessage) {
  // One worker claims the 4 one-index chunks in order, so chunk 1 throws
  // first and chunk 2 second.
  ThreadPool pool(1);
  try {
    pool.parallel_for(4, [](std::size_t i) {
      if (i == 1) throw std::runtime_error("first");
      if (i == 2) throw std::runtime_error("second");
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first");
  }
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The error was consumed by the rethrow; subsequent rounds run clean.
  std::atomic<int> counter{0};
  EXPECT_NO_THROW(pool.parallel_for(50, [&](std::size_t) { counter.fetch_add(1); }));
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NonThrowingTasksStillCompleteAlongsideThrower) {
  // 12 indices on 3 workers make 12 one-index chunks: every chunk but the
  // thrower's runs to completion before the rethrow.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(12);
  EXPECT_THROW(pool.parallel_for(hits.size(),
                                 [&](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("chunk 5");
                                   hits[i].fetch_add(1);
                                 }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), i == 5 ? 0 : 1) << "index " << i;
  }
}

}  // namespace
}  // namespace metadock::util
