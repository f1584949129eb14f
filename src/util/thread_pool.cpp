#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace gc {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(i64 begin, i64 end,
                              const std::function<void(i64)>& body) {
  parallel_for_chunks(begin, end, [&body](i64 lo, i64 hi) {
    for (i64 i = lo; i < hi; ++i) body(i);
  });
}

void ThreadPool::parallel_for_chunks(i64 begin, i64 end,
                                     const std::function<void(i64, i64)>& body,
                                     i64 min_chunk) {
  const i64 n = end - begin;
  if (n <= 0) return;
  const i64 by_floor = min_chunk > 1 ? std::max<i64>(1, n / min_chunk) : n;
  const i64 parts =
      std::min<i64>(static_cast<i64>(size()), std::min(n, by_floor));
  if (parts <= 1) {
    body(begin, end);
    return;
  }
  const i64 chunk = (n + parts - 1) / parts;
  // A chunk that throws must not end the process on a worker thread: the
  // first failure of this call is kept and rethrown here once every chunk
  // has finished, so the caller sees it as if the loop ran inline.
  std::exception_ptr failure;
  for (i64 p = 0; p < parts; ++p) {
    const i64 lo = begin + p * chunk;
    const i64 hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    submit([this, &body, &failure, lo, hi] {
      try {
        body(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  wait();
  if (failure) std::rethrow_exception(failure);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace gc
