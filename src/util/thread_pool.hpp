// A small fixed-size thread pool with a blocking parallel_for, in the style
// of an OpenMP static-schedule worksharing loop. Used to run LBM kernels
// and to host the logical cluster nodes of MpiLite.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/common.hpp"
#include "util/thread_annotations.hpp"

namespace gc {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue an arbitrary task (fire and forget; use wait() to drain).
  void submit(std::function<void()> task) GC_EXCLUDES(mu_);

  /// Block until every submitted task has finished.
  void wait() GC_EXCLUDES(mu_);

  /// Static-partition parallel loop over [begin, end). Blocks until done.
  /// The body receives (index). Chunks are contiguous so kernels stay
  /// cache-friendly; with a single worker it degenerates to a serial loop.
  /// If the body throws, the first exception is rethrown on the calling
  /// thread after every chunk has finished (also for the chunked form).
  void parallel_for(i64 begin, i64 end, const std::function<void(i64)>& body)
      GC_EXCLUDES(mu_);

  /// Chunked variant: body receives a [chunk_begin, chunk_end) range.
  /// Preferred for kernels — avoids a std::function call per element.
  /// `min_chunk` is a floor on the chunk length: fewer chunks are handed
  /// out when the range is small, so tiny inputs (e.g. 8^3 test lattices)
  /// don't pay pool dispatch overhead for near-empty chunks. With one
  /// chunk the body runs inline on the calling thread.
  void parallel_for_chunks(i64 begin, i64 end,
                           const std::function<void(i64, i64)>& body,
                           i64 min_chunk = 1) GC_EXCLUDES(mu_);

  /// Process-wide pool sized to the hardware. Lazily constructed.
  static ThreadPool& global();

  /// Chunk floor for parallel_for_chunks when every loop index stands for
  /// `per_index` elements of real work (e.g. one z-slice of d.x*d.y lattice
  /// cells): enough indices per chunk that a chunk covers at least `target`
  /// elements. Large slices yield 1 (no change); tiny slices coalesce.
  static i64 min_chunk_indices(i64 per_index, i64 target = 8192) {
    if (per_index <= 0) return 1;
    return (target + per_index - 1) / per_index;
  }

 private:
  void worker_loop() GC_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_ GC_GUARDED_BY(mu_);
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::size_t in_flight_ GC_GUARDED_BY(mu_) = 0;
  bool stop_ GC_GUARDED_BY(mu_) = false;
};

}  // namespace gc
