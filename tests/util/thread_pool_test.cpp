#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace metadock::util {
namespace {

/// Two-party meeting point with a bounded wait: arrive() returns true once
/// both parties have arrived, false after `timeout` alone, so a pool that
/// runs the two indices one after the other fails instead of hanging.
class Rendezvous {
 public:
  bool arrive(std::chrono::seconds timeout = std::chrono::seconds(10)) {
    arrived_.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (arrived_.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }

 private:
  std::atomic<int> arrived_{0};
};

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, CallerScoresBesideAWorker) {
  // Two participants, two indices that only finish together: they can
  // only meet if the caller runs one while the worker runs the other.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous meet;
  std::vector<std::thread::id> ran_on(2);
  std::vector<int> met(2, 0);
  pool.parallel_for(2, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    met[i] = meet.arrive() ? 1 : 0;
  });
  EXPECT_EQ(met, (std::vector<int>{1, 1}));
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_TRUE(ran_on[0] == caller || ran_on[1] == caller);
}

TEST(ThreadPool, OneParticipantRunsEveryIndexOnTheCallerInOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::set<std::thread::id> threads;
  pool.parallel_for(6, [&](std::size_t i) {
    order.push_back(i);
    threads.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(threads, std::set<std::thread::id>{caller});
}

TEST(ThreadPool, NestedCallFromACallerIndexRunsInline) {
  // Two participants: the caller runs at least one outer index, and a
  // nested call from there must run inline on the caller, in order (a
  // nested call that waited for its turn would wait for itself).
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous meet;
  std::atomic<int> nested_on_caller{0};
  std::vector<std::size_t> order;
  bool inline_on_caller = true;
  pool.parallel_for(2, [&](std::size_t) {
    (void)meet.arrive();
    if (std::this_thread::get_id() != caller) return;
    pool.parallel_for(4, [&](std::size_t j) {
      inline_on_caller = inline_on_caller && std::this_thread::get_id() == caller;
      order.push_back(j);
    });
    nested_on_caller.fetch_add(1);
  });
  EXPECT_EQ(nested_on_caller.load(), 1);
  EXPECT_TRUE(inline_on_caller);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ExceptionOnTheCallersIndexArrivesAfterTheOtherIndices) {
  // The caller's index throws at once; the worker's index is still
  // running.  The rethrow must wait for it.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  Rendezvous meet;
  std::atomic<bool> worker_done{false};
  std::atomic<bool> caller_threw{false};
  try {
    pool.parallel_for(2, [&](std::size_t) {
      ASSERT_TRUE(meet.arrive());
      if (std::this_thread::get_id() == caller) {
        caller_threw.store(true);
        throw std::runtime_error("caller");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      worker_done.store(true);
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "caller");
  }
  EXPECT_TRUE(caller_threw.load());
  EXPECT_TRUE(worker_done.load());
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
  // The caller alone claims the 4 indices in order, so index 1 throws
  // first and index 2 second.
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
  // Every index but the thrower runs to completion before the rethrow.
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
