// Minimal fork-join thread pool.
//
// The CUDA Core Guidelines-style rule we follow (CP.23/CP.25): threads are
// scoped containers — the pool joins everything in its destructor and no
// thread ever outlives the data it touches.  The host scoring pass uses the
// pool to score each batch's pose blocks while the cost models advance the
// simulated devices' virtual clocks.
//
// Lock discipline (DESIGN.md §16): the pool has one call slot — body,
// range, chunk cursor, chunks left, first exception — plus the stop flag,
// all GUARDED_BY(mu_); the clang thread-safety gate proves every access
// happens under the lock.  Calls from different threads take turns through
// call_mu_, so a caller only ever waits on, and rethrows from, its own
// chunks.  A call allocates nothing.
#pragma once

#include <cstddef>
#include <exception>
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

  /// Runs fn(i) for i in [0, n) on the workers, split into min(n, 4 ×
  /// size()) contiguous chunks, and blocks until done.  fn is held by
  /// reference, never copied, and must be safe to call concurrently for
  /// distinct i.  When called from inside a pool worker (nested
  /// parallelism), runs inline on the calling thread instead.  An exception
  /// thrown by fn propagates to the caller (first thrower wins; the other
  /// chunks still run to completion before the rethrow).  Calls from
  /// different threads take turns.
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
  void worker_loop() EXCLUDES(mu_);

  /// Held for a whole call: calls from different threads take turns.
  Mutex call_mu_;
  Mutex mu_;
  CondVar cv_work_;
  CondVar cv_done_;
  // The call slot.  Indices [next_, n_) are not claimed yet, a chunk of
  // chunk_ at a time; chunks_left_ counts the chunks not finished yet.
  Body body_ GUARDED_BY(mu_) = nullptr;
  const void* fn_ GUARDED_BY(mu_) = nullptr;
  std::size_t n_ GUARDED_BY(mu_) = 0;
  std::size_t chunk_ GUARDED_BY(mu_) = 0;
  std::size_t next_ GUARDED_BY(mu_) = 0;
  std::size_t chunks_left_ GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace metadock::util
