#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace metadock::util {
namespace {
// True on threads that are themselves pool workers: a nested parallel_for
// would wait for its turn behind the very call whose chunk it runs in, so
// nested calls run inline instead.
thread_local bool t_inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
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
  if (t_inside_pool_worker) {
    for (std::size_t i = 0; i < n; ++i) body(fn, i);
    return;
  }
  const std::size_t chunks = std::min(n, workers_.size() * 4);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  const ScopedLock turn(call_mu_);
  {
    ScopedLock lock(mu_);
    body_ = body;
    fn_ = fn;
    n_ = n;
    chunk_ = chunk;
    next_ = 0;
    chunks_left_ = (n + chunk - 1) / chunk;
  }
  cv_work_.notify_all();
  ScopedLock lock(mu_);
  // fn stays valid until here: each worker counts its chunk finished only
  // after its last call of fn.
  while (chunks_left_ != 0) cv_done_.wait(mu_);
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  t_inside_pool_worker = true;
  for (;;) {
    Body body = nullptr;
    const void* fn = nullptr;
    std::size_t lo = 0;
    std::size_t hi = 0;
    {
      ScopedLock lock(mu_);
      while (!stop_ && next_ == n_) cv_work_.wait(mu_);
      if (next_ == n_) return;  // stopping, and no chunk left to claim
      body = body_;
      fn = fn_;
      lo = next_;
      hi = std::min(n_, lo + chunk_);
      next_ = hi;
    }
    // A throwing chunk stops at its thrower; the worker stays alive (an
    // escaped exception would std::terminate the process).
    std::exception_ptr error;
    try {
      for (std::size_t i = lo; i < hi; ++i) body(fn, i);
    } catch (...) {
      error = std::current_exception();
    }
    bool last = false;
    {
      ScopedLock lock(mu_);
      if (error && !error_) error_ = std::move(error);
      last = --chunks_left_ == 0;
    }
    if (last) cv_done_.notify_one();
  }
}

}  // namespace metadock::util
