// Event-level model of the overlapped step pipeline (Section 4.3): the
// GPU gathers and reads back its borders, the network exchange proceeds
// while the GPU computes the inner-cell collision (the ~120 ms window),
// ghost data is written back, and the remaining GPU work (border
// collision, streaming, boundary evaluation) finishes the step. Produces
// a task timeline (Gantt) and the step makespan; cross-validated against
// ClusterSimulator's closed-form breakdown.
#pragma once

#include <string>
#include <vector>

#include "core/cluster_sim.hpp"
#include "obs/trace.hpp"

namespace gc::core {

struct TimelineTask {
  std::string name;
  /// Canonical span name shared with the *executed* overlap engine
  /// (overlap.pack / overlap.inner / overlap.wait / overlap.unpack /
  /// overlap.outer), so modeled and measured traces diff cleanly in one
  /// Chrome-trace viewer. `name` stays the human Gantt label.
  std::string span;
  double start_ms = 0;
  double end_ms = 0;
  double duration_ms() const { return end_ms - start_ms; }
};

struct OverlapTimeline {
  std::vector<TimelineTask> tasks;
  double makespan_ms = 0;
  /// Network time hidden under the inner-collision window.
  double network_hidden_ms = 0;

  const TimelineTask* find(const std::string& name) const;
  /// ASCII Gantt rendering for the benches.
  std::string gantt(int width = 60) const;

  /// Records every task as a span under its canonical overlap.* name
  /// (cat "overlap", tid = `rank`) — the same names/categories the
  /// executed overlap engine emits, so the modeled timeline lands in the
  /// same Chrome-trace file as measured runs and the two diff cleanly in
  /// one viewer.
  void export_trace(obs::TraceRecorder& rec, int rank = 0) const;
};

/// Simulates one overlapped step for the busiest node of the scenario,
/// from the same busiest_node_cost() that ClusterSimulator prices.
OverlapTimeline simulate_overlapped_step(const ClusterScenario& sc);

}  // namespace gc::core
