// The distributed LBM of Section 4.3, functionally: each logical cluster
// node owns a block of the lattice (plus ghost layers), runs the serial
// solver's sub-domain step on its owned cells (lbm::collide_step, then
// lbm::check_divergence after streaming), exchanges border distributions
// following the pairwise communication schedule — diagonal traffic routed
// indirectly in two axial hops — and streams. Only decomposition,
// exchange and streaming are its own, and those are what the equivalence
// harness compares: results are identical to the serial lbm reference;
// the matching *timing* comes from core::ClusterSimulator.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/border_exchange.hpp"
#include "core/decomposition.hpp"
#include "lbm/collision.hpp"
#include "lbm/solver.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"
#include "util/thread_annotations.hpp"

namespace gc::core {

/// Embeds lbm::RunParams (tau / collision / storage — see run_params.hpp);
/// `storage` selects the per-node backend: the in-place AA pattern or
/// the compact Sparse layout (bit-exact and wire-compatible — pack/unpack
/// go through the phase-transparent accessors).
struct ParallelConfig : lbm::RunParams {
  netsim::NodeGrid grid;
  /// Hybrid thermal model (requires MRT): the finite-difference temperature
  /// field runs distributed too, exchanging one ghost value per border
  /// cell per step (the 7-point stencil needs axial faces only).
  std::optional<lbm::ThermalParams> thermal;
  /// Initial global temperature field (cell-indexed); defaults to t_ref.
  const std::vector<Real>* initial_temperature = nullptr;
  /// Places the decomposition's cut planes on per-axis fluid-cell counts
  /// (hemelb-style coordinate partitioning) instead of uniformly, so
  /// solid-heavy geometry stops inflating one rank's fluid load. Pure
  /// load-balance knob: the node-grid topology and every simulated value
  /// are unchanged.
  bool fluid_balanced = false;
  /// Selects how the one border-exchange routine (ClusterExchange) is
  /// called. False: the paper's synchronous ordering, one exchange per
  /// schedule round, then a full-lattice stream. True: the §4.4
  /// compute–communication overlap, every round posted at once, the inner
  /// cells (those that cannot read a ghost) streamed while the messages
  /// are in flight, then wait, ghost unpack and outer-shell streaming.
  /// Both orderings put the same messages on the same channels and are
  /// bit-identical to each other and to the serial reference — the pull
  /// pattern writes each cell exactly once, so phase order cannot change
  /// a value. The overlapped ordering emits overlap.pack / overlap.inner /
  /// overlap.wait / overlap.unpack / overlap.outer spans and the
  /// mpi.overlap_hidden_ms gauge when a recorder is attached.
  bool overlap = false;
  /// When set, every rank emits collide / pack / unpack / exchange /
  /// stream spans here (tid = rank), plus thermal in thermal runs, and
  /// run() publishes per-rank mpi.messages / mpi.bytes counters. Null =
  /// zero instrumentation cost. Not owned.
  obs::TraceRecorder* trace = nullptr;
  /// Fault injection: when set, MpiLite applies the spec's message
  /// faults to every first transmission and times its receives, and
  /// ranks apply its crash faults. Not owned (and mutable: crash faults
  /// are one-shot, counters accumulate). Null = perfect network: the
  /// envelope protocol still carries every message, but receives wait
  /// untimed.
  netsim::FaultSpec* faults = nullptr;
  /// Receive-timer and retransmit policy used when `faults` is attached.
  netsim::ReliabilityConfig reliability;
  /// When set, each rank scans its owned region after every
  /// `sentinel->every`-th step and throws DivergenceError on NaN or
  /// density blow-up. Unset = zero cost.
  std::optional<lbm::SentinelThresholds> sentinel;
};

class ParallelLbm {
 public:
  /// Scatters `global` (flags, boundary setup, current distributions)
  /// across the node grid. Decomposed axes must not be periodic, and the
  /// global lattice must not use curved links.
  ParallelLbm(const lbm::Lattice& global, ParallelConfig cfg);

  const Decomposition3& decomposition() const { return ex_.decomposition(); }
  const netsim::CommSchedule& schedule() const { return ex_.schedule(); }

  /// Advances all nodes `steps` LBM steps, one MpiLite rank per node.
  /// The summary carries wall time and, when a recorder is attached,
  /// per-phase span totals for just this run. Under an attached
  /// FaultSpec this may throw CommError / RankCrashError /
  /// DivergenceError; the step counter only advances on success, and
  /// reset_comm() + restore_local() roll the simulation back.
  obs::RunStats run(int steps);

  /// Global LBM steps completed so far (advances only on successful
  /// run() calls; the recovery layer rewinds it on rollback).
  i64 current_step() const { return step_; }
  void set_current_step(i64 step) { step_ = step; }

  /// Overwrites node `node`'s distributions with `saved` (same local
  /// dimensions; flags/BCs are configuration and stay untouched). The
  /// restore half of a checkpoint rollback.
  void restore_local(int node, const lbm::Lattice& saved);

  /// Clears the communicator after a failed run (abort flag, in-flight
  /// messages, protocol state) plus any half-forwarded diagonal chunks,
  /// so a restored simulation can run again.
  void reset_comm() { ex_.reset(); }

  /// Aborts the communicator world from outside the run: every rank
  /// blocked in a receive wakes with CommAborted and the run() call
  /// fails promptly. The cancellation hook for deadline watchdogs; pair
  /// with reset_comm() before running again.
  void abort_comm() GC_EXCLUDES(netsim::MpiLite::mu_) { ex_.world().abort(); }

  /// Reassembles the owned regions into a global lattice.
  void gather(lbm::Lattice& out) const;

  /// Reassembles the temperature field (thermal runs only).
  void gather_temperature(std::vector<Real>& out) const;

  /// Access to a node's local lattice (tests).
  const lbm::Lattice& local(int node) const {
    return nodes_[static_cast<std::size_t>(node)]->lattice();
  }

  bool has_thermal() const { return !thermals_.empty(); }

  const ParallelConfig& config() const { return cfg_; }

  /// Bytes exchanged per schedule step per pair (face payloads plus any
  /// piggybacked diagonal hops) — the input for netsim::SwitchModel.
  /// Same shape and name as ClusterSimulator::traffic_bytes_per_step, so
  /// the measured and analytic accountings can be diffed entry-by-entry.
  netsim::TrafficMatrix traffic_bytes_per_step() const;

  /// Total payload values routed through MpiLite so far.
  i64 total_payload_values() const {
    return ex_.world().total_payload_values();
  }

  /// The underlying communicator world (read-only): per-rank traffic and
  /// reliability tallies for the determinism/equivalence harnesses.
  const netsim::MpiLite& world() const { return ex_.world(); }

  /// Cumulative network time node `node` hid under its inner-cell
  /// streaming window (overlap mode only; 0 otherwise). Measured from
  /// message enqueue stamps, not modeled: the overlap of the
  /// comm-in-flight interval with the inner-compute window.
  double overlap_hidden_ms(int node) const { return ex_.hidden_ms(node); }

 private:
  void node_step(netsim::Comm& comm, int node, i64 global_step);

  ParallelConfig cfg_;
  ClusterExchange ex_;
  std::vector<std::unique_ptr<HostNode>> nodes_;
  std::vector<std::unique_ptr<lbm::ThermalField>> thermals_;
  i64 step_ = 0;
};

}  // namespace gc::core
