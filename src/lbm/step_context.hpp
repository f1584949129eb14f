// Execution context threaded through the stepping kernels: which thread
// pool to run on (null = serial) and where to record trace spans (null =
// no instrumentation, zero overhead). Every kernel has one entry point
// taking a StepContext; a ThreadPool& converts to one implicitly, so a
// `collide_bgk(lat, p, pool)` call reaches that same entry point.
//
// Also here: CellBox, the optional cell range a collide pass is clipped
// to.
#pragma once

#include <limits>

#include "util/thread_pool.hpp"
#include "util/vec3.hpp"

namespace gc::obs {
class TraceRecorder;
}  // namespace gc::obs

namespace gc::lbm {

struct StepContext {
  ThreadPool* pool = nullptr;          ///< z-slab parallelism (not owned)
  obs::TraceRecorder* trace = nullptr; ///< span/counter sink (not owned)
  int rank = 0;                        ///< trace lane (MpiLite rank or 0)

  StepContext() = default;
  StepContext(ThreadPool* pool_, obs::TraceRecorder* trace_ = nullptr,
              int rank_ = 0)
      : pool(pool_), trace(trace_), rank(rank_) {}
  /// Implicit on purpose: `f(lat, p, pool)` runs kernel f on `pool`.
  StepContext(ThreadPool& pool_) : pool(&pool_) {}
};

/// A half-open box of lattice cells [lo, hi). Kernels clip it to the
/// lattice, so the default box covers every cell of any lattice.
struct CellBox {
  static constexpr int kUnbounded = std::numeric_limits<int>::max();
  Int3 lo{0, 0, 0};
  Int3 hi{kUnbounded, kUnbounded, kUnbounded};
};

}  // namespace gc::lbm
