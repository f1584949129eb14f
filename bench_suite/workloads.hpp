// The three workloads of the suite. Each runs in its own process (so peak
// RSS and cache state belong to it alone), sets up several times (see
// another_setup) and reports the median set-up time, measures for
// Options::seconds, runs
// its correctness gates, and fills a Report.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "report.hpp"

namespace gc::core {
class ParallelLbm;
}

namespace gc::bench {

/// Ranks, pool threads and service workers x ranks are sized to this.
constexpr int kThreads = 4;
/// Set-up runs at least kSetupRepeats times per workload run, then again
/// until kSetupSeconds have passed, at most kSetupMaxRepeats times;
/// setup_s is the median. A set-up of a few tens of milliseconds varies by
/// tens of percent between repeats on a shared host, so cheap set-ups get
/// more repeats.
constexpr int kSetupRepeats = 3;
constexpr double kSetupSeconds = 2;
constexpr int kSetupMaxRepeats = 15;

/// Whether to set up again after `done` set-ups that took `elapsed_s`.
inline bool another_setup(int done, double elapsed_s) {
  return done < kSetupRepeats ||
         (elapsed_s < kSetupSeconds && done < kSetupMaxRepeats);
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 30;       ///< length of the timed phase
  bool traced = false;       ///< attach the recorders, report per-layer
  std::string trace_dir;     ///< where the traced run writes its traces
  std::string work_dir;      ///< scratch files (flow caches, checkpoints)
  bool quick = false;        ///< shrink every input (smoke runs)
};

void run_box_aa(const Options& o, Report& rep, SpanLog& log);
void run_times_square(const Options& o, Report& rep, SpanLog& log);
void run_scenario_mix(const Options& o, Report& rep, SpanLog& log);

/// Per-block wall times of a closed loop. In a traced run blocks alternate
/// recorder off (`plain_ms`) and on (`traced_ms`), so one process yields
/// both the per-layer spans and the tracing overhead.
struct Blocks {
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  i64 count = 0;
};

/// Runs `block` back to back until `seconds` have passed and at least
/// `min_blocks` blocks ran. `rec` (may be null) is toggled per block.
Blocks time_blocks(double seconds, int min_blocks, obs::TraceRecorder* rec,
                   const std::function<void()>& block);

/// Writes the recorder as a Chrome trace plus its CSV sibling (the pair
/// trace_validate checks) to <trace_dir>/<workload>_obs_trace.json, and
/// gates on the trace parsing back with at least one span.
void write_obs_trace(const Options& o, const obs::TraceRecorder& rec,
                     Report& rep);

/// mem.triad_gbps and lbm.pct_of_triad (of lbm.gbps_computed). Traced
/// runs only: the probe allocates three arrays of up to 4x the LLC.
void set_roofline(Report& rep);

/// obs.trace_overhead_pct: median with the recorders on over median with
/// them off.
void set_trace_overhead(Report& rep, const std::vector<double>& plain_ms,
                        const std::vector<double>& traced_ms);

/// core.imbalance: max over mean of owned non-solid cells per rank.
double fluid_imbalance(const core::ParallelLbm& sim);

/// core.* per-step phase times (mean over ranks) from the overlap spans a
/// traced ParallelLbm emitted over `steps` steps of `wall_ms_per_step`.
void set_core_phase_metrics(Report& rep, const obs::TraceRecorder& rec,
                            int ranks, i64 steps, double wall_ms_per_step);

}  // namespace gc::bench
