// Minimal work-sharing thread pool.
//
// The CUDA Core Guidelines-style rule we follow (CP.23/CP.25): threads are
// scoped containers — the pool joins everything in its destructor and no
// thread ever outlives the data it touches.  The host scoring pass uses the
// pool to score each batch's pose blocks while the cost models advance the
// simulated devices' virtual clocks.
//
// Lock discipline (DESIGN.md §16): all cross-thread state — the task
// queue, the in-flight counter, the stop flag, and the first-exception
// slot — is GUARDED_BY(mu_); the clang thread-safety gate proves every
// access happens under the lock.  Each parallel_for() call owns a private
// completion capability (see ForCall in the .cpp), so concurrent callers
// never contend on — or observe — each other's state.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace metadock::util {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns immediately.  A task that throws does not
  /// kill the worker: the first exception is captured and rethrown by the
  /// next wait_idle()/parallel_for() on the submitting side.
  void submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished (including tasks that
  /// in-flight parallel_for() calls spawned).  Rethrows the first exception
  /// a submit()ed task threw since the last wait (later ones are dropped;
  /// parallel_for exceptions belong to their own call and are never
  /// surfaced here); the pool stays usable afterwards.
  void wait_idle() EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), splitting the index space into contiguous
  /// chunks across workers, and blocks until done.  fn must be safe to call
  /// concurrently for distinct i.  When called from inside a pool worker
  /// (nested parallelism), runs inline on the calling thread instead.  An
  /// exception thrown by fn propagates to the caller (first thrower wins;
  /// remaining chunks still run to completion before the rethrow).
  ///
  /// Each call tracks its own completion and its own first exception, so
  /// concurrent parallel_for() calls on the same pool are independent: a
  /// caller never waits on another caller's tasks and an exception always
  /// surfaces at the call whose fn threw it (never at wait_idle()).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      EXCLUDES(mu_);

  /// Shared process-wide pool sized to the hardware.
  static ThreadPool& global();

 private:
  void worker_loop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  /// First exception thrown by a task since the last wait_idle rethrow.
  std::exception_ptr first_error_ GUARDED_BY(mu_);
};

}  // namespace metadock::util
