// Minimal fork-join thread pool whose caller works too.
//
// The CUDA Core Guidelines-style rule we follow (CP.23/CP.25): threads are
// scoped containers — the pool joins everything in its destructor and no
// thread ever outlives the data it touches.  The host scoring pass uses the
// pool to score each batch's pose blocks while the cost models advance the
// simulated devices' virtual clocks, and the metaheuristic engine runs its
// per-spot phases on it.
//
// A pool of n participants is the calling thread plus n − 1 workers.  Each
// participant claims one index at a time from an atomic cursor, so a slow
// or descheduled participant holds up at most the index it runs, and the
// caller never sleeps while indices are left.  The caller closes the call
// as soon as the cursor is spent: a worker that wakes later stays out, and
// the caller waits only for the workers that joined.  A worker polls for
// the next call, and the caller for the joined workers, for 50 µs before
// sleeping on a condition variable: calls come tens of microseconds apart,
// and on a virtual machine a thread that slept can take far longer than
// that to run again once woken.
//
// Lock discipline (DESIGN.md §16): the pool has one call slot — body,
// range, open flag, first exception — plus the stop flag, all
// GUARDED_BY(mu_); the clang thread-safety gate proves every access
// happens under the lock.  Three atomics sit beside them.  The index
// cursor: a worker reads it only between joining a call and leaving it,
// and the caller resets it only while no worker has joined.  The call
// number and the joined-worker count: written only under mu_, and read
// without it only to end a poll early.  Calls from different threads take
// turns through call_mu_, so a caller only ever waits on, and rethrows
// from, its own indices.  A call allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace metadock::util {

class ThreadPool {
 public:
  /// A pool of `participants` threads counting the caller, so it starts
  /// participants − 1 workers.  0 (the default) means hardware
  /// concurrency, at least 1; a pool of 1 runs every call on the caller.
  explicit ThreadPool(std::size_t participants = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants of a call: the workers plus the caller.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Runs fn(i) for i in [0, n) on the caller and the workers, one index
  /// per claim, and blocks until done.  fn is held by reference, never
  /// copied, and must be safe to call concurrently for distinct i.  Called
  /// from inside an index of any pool's call (nested parallelism), it runs
  /// every index inline on the calling thread instead.  An exception thrown
  /// by fn propagates to the caller (first thrower wins; every other index
  /// still runs before the rethrow).  Calls from different threads take
  /// turns.
  template <typename Fn>
  void parallel_for(std::size_t n, const Fn& fn) EXCLUDES(call_mu_, mu_) {
    run(n, [](const void* f, std::size_t i) { (*static_cast<const Fn*>(f))(i); }, &fn);
  }

  /// Shared process-wide pool sized to the hardware.
  static ThreadPool& global();

 private:
  /// Calls the type-erased callable `fn` on index `i`.
  using Body = void (*)(const void* fn, std::size_t i);

  void run(std::size_t n, Body body, const void* fn) EXCLUDES(call_mu_, mu_);
  /// Claims and runs indices of the open call until none is left.
  void claim_indices(Body body, const void* fn, std::size_t n) EXCLUDES(mu_);
  /// Keeps the first exception of the call.
  void record(std::exception_ptr error) EXCLUDES(mu_);
  void worker_loop() EXCLUDES(mu_);

  /// Held for a whole call: calls from different threads take turns.
  Mutex call_mu_;
  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  // The call slot.  Workers join call number call_ while open_; joined_
  // counts those that have not left yet.
  Body body_ GUARDED_BY(mu_) = nullptr;
  const void* fn_ GUARDED_BY(mu_) = nullptr;
  std::size_t n_ GUARDED_BY(mu_) = 0;
  bool open_ GUARDED_BY(mu_) = false;
  std::exception_ptr error_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  /// Written under mu_; polled without it.
  std::atomic<std::uint64_t> call_{0};
  std::atomic<std::size_t> joined_{0};
  /// The next index to claim.
  std::atomic<std::size_t> next_{0};
  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace metadock::util
