// Observability core: a low-overhead trace recorder for the functional
// solvers. Named begin/end spans (with a rank id that becomes the trace
// viewer's tid), a monotonic Counter / last-value Gauge registry, and
// aggregation helpers feeding the RunStats summaries returned by the
// stepping APIs. The default is *no* recorder: every instrumentation site
// takes a nullable TraceRecorder* and compiles to a couple of pointer
// tests when none is attached (no clock reads, no allocations).
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/common.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::obs {

/// One completed span. `rank` maps to the trace viewer's thread lane:
/// MpiLite rank for distributed runs, 0 for single-node solvers.
struct TraceEvent {
  std::string name;
  std::string cat;  ///< coarse subsystem tag ("lbm", "net", "model", ...)
  int rank = 0;
  double t0_us = 0;  ///< microseconds since the recorder epoch
  double t1_us = 0;
  double duration_ms() const { return (t1_us - t0_us) * 1e-3; }
};

/// Cumulative counter value for one (name, rank) pair.
struct CounterSample {
  std::string name;
  int rank = 0;
  i64 value = 0;
};

/// Last-set gauge value for one (name, rank) pair.
struct GaugeSample {
  std::string name;
  int rank = 0;
  double value = 0;
};

/// Total time spent in all spans sharing a name (summed across ranks).
struct PhaseTotal {
  std::string name;
  double total_ms = 0;
  i64 count = 0;
};

/// Summary returned by Solver::run and ParallelLbm::run: step count, wall
/// time, and (when a recorder was attached) per-phase span totals.
struct RunStats {
  i64 steps = 0;
  double wall_ms = 0;
  std::vector<PhaseTotal> phases;  ///< empty when no recorder was attached

  /// Total milliseconds recorded for phase `name` (0 if absent).
  double phase_ms(const std::string& name) const;
  /// Number of spans recorded for phase `name` (0 if absent).
  i64 phase_count(const std::string& name) const;
};

/// Collects spans, counters and gauges from any number of threads. All
/// mutation goes through one mutex — instrumentation sites fire a handful
/// of times per solver step, so contention is negligible next to the
/// millisecond-scale kernels they wrap.
class TraceRecorder {
 public:
  TraceRecorder() { timer_.reset(); }

  /// Spans check this before reading the clock; flipping it off mid-run
  /// freezes the trace without detaching the recorder.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Microseconds since the recorder was constructed (steady clock).
  double now_us() const { return timer_.seconds() * 1e6; }

  void record_span(std::string name, std::string cat, int rank, double t0_us,
                   double t1_us) GC_EXCLUDES(mu_);

  /// Adds `delta` to the monotonic counter (name, rank).
  void add_counter(const std::string& name, int rank, i64 delta)
      GC_EXCLUDES(mu_);
  /// Sets the gauge (name, rank); the last value wins.
  void set_gauge(const std::string& name, int rank, double value)
      GC_EXCLUDES(mu_);

  std::vector<TraceEvent> events() const GC_EXCLUDES(mu_);
  std::size_t num_events() const GC_EXCLUDES(mu_);

  /// Cumulative counter value; rank < 0 sums across all ranks.
  i64 counter(const std::string& name, int rank = -1) const GC_EXCLUDES(mu_);
  std::vector<CounterSample> counters() const GC_EXCLUDES(mu_);
  std::vector<GaugeSample> gauges() const GC_EXCLUDES(mu_);

  /// Aggregates span durations by name over events [from, num_events()).
  /// Pass the num_events() snapshot taken before a run to summarize just
  /// that run. Results are sorted by name.
  std::vector<PhaseTotal> phase_totals(std::size_t from = 0) const
      GC_EXCLUDES(mu_);

  void clear() GC_EXCLUDES(mu_);

 private:
  /// Flipped between runs (set_enabled contract); instrumentation sites
  /// read it lock-free on purpose, so it stays outside the mu_ contract.
  bool enabled_ = true;
  Timer timer_;
  /// Innermost lock of the whole repo: every subsystem may publish
  /// metrics while holding its own locks, and nothing under mu_ calls
  /// back out.
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_ GC_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, i64> counters_ GC_GUARDED_BY(mu_);
  std::map<std::pair<std::string, int>, double> gauges_ GC_GUARDED_BY(mu_);
};

/// RAII span: reads the clock on entry and records on exit. With a null
/// (or disabled) recorder the constructor stores nothing and the
/// destructor is a single branch — safe to leave in release hot paths.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, const char* name, int rank = 0,
             const char* cat = "")
      : rec_(rec && rec->enabled() ? rec : nullptr),
        name_(name),
        cat_(cat),
        rank_(rank),
        t0_us_(rec_ ? rec_->now_us() : 0) {}

  ~ScopedSpan() {
    if (rec_) rec_->record_span(name_, cat_, rank_, t0_us_, rec_->now_us());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  int rank_;
  double t0_us_;
};

}  // namespace gc::obs
