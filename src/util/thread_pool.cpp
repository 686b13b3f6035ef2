#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace metadock::util {
namespace {
// True while this thread runs indices of some pool's call: always on a
// worker, and on a caller during its own call.  A nested parallel_for would
// wait for its turn behind the very call whose index it runs in, so nested
// calls run inline instead.
thread_local bool t_running_indices = false;

/// How long a thread polls before it sleeps on a condition variable.  On a
/// 4-core VM losing 30% of its time to other guests, polling cut the
/// engine's host time on pocket from 0.67-0.77 s to 0.30-0.33 s.
constexpr std::chrono::microseconds kPoll{50};

/// Polls `done` for up to kPoll.
template <typename Done>
void poll(const Done& done) {
  const auto until = std::chrono::steady_clock::now() + kPoll;
  while (!done() && std::chrono::steady_clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}
}  // namespace

ThreadPool::ThreadPool(std::size_t participants) {
  if (participants == 0) {
    participants = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(participants - 1);
  for (std::size_t i = 1; i < participants; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t n, Body body, const void* fn) {
  if (n == 0) return;
  if (t_running_indices) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        body(fn, i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  const ScopedLock turn(call_mu_);
  {
    ScopedLock lock(mu_);
    body_ = body;
    fn_ = fn;
    n_ = n;
    // No worker has joined since the last call closed, so none reads the
    // cursor while it is reset.
    next_.store(0, std::memory_order_relaxed);
    call_.fetch_add(1, std::memory_order_release);
    open_ = true;
  }
  if (n > 1) cv_work_.notify_all();
  t_running_indices = true;
  claim_indices(body, fn, n);
  t_running_indices = false;
  {
    // Every index is claimed: a worker that wakes from here on stays out.
    ScopedLock lock(mu_);
    open_ = false;
  }
  // fn stays valid until the joined workers leave, after their last call
  // of fn.
  poll([this] { return joined_.load(std::memory_order_acquire) == 0; });
  ScopedLock lock(mu_);
  while (joined_.load(std::memory_order_acquire) != 0) cv_done_.wait(mu_);
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::claim_indices(Body body, const void* fn, std::size_t n) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    // A throwing index does not stop the others; the thread stays alive
    // (an escaped exception would std::terminate the process).
    try {
      body(fn, i);
    } catch (...) {
      record(std::current_exception());
    }
  }
}

void ThreadPool::record(std::exception_ptr error) {
  ScopedLock lock(mu_);
  if (!error_) error_ = std::move(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_running_indices = true;
  std::uint64_t joined_call = 0;
  for (;;) {
    Body body = nullptr;
    const void* fn = nullptr;
    std::size_t n = 0;
    poll([&] { return call_.load(std::memory_order_acquire) != joined_call; });
    {
      ScopedLock lock(mu_);
      while (!stop_ && (!open_ || call_.load(std::memory_order_relaxed) == joined_call)) {
        cv_work_.wait(mu_);
      }
      if (stop_) return;  // no call is open while the pool is destroyed
      joined_call = call_.load(std::memory_order_relaxed);
      joined_.fetch_add(1, std::memory_order_relaxed);
      body = body_;
      fn = fn_;
      n = n_;
    }
    claim_indices(body, fn, n);
    bool last = false;
    {
      ScopedLock lock(mu_);
      last = joined_.fetch_sub(1, std::memory_order_release) == 1 && !open_;
    }
    if (last) cv_done_.notify_one();
  }
}

}  // namespace metadock::util
