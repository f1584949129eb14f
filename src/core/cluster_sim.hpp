// The GPU-cluster timing simulator: composes the calibrated node profile,
// the bus model and the switch model into the per-step pipeline of
// Section 4.3/4.4 — GPU compute (with border-gather passes), GPU->CPU
// read-back and CPU->GPU write-back per neighbor, and the scheduled
// network exchange overlapped with the inner-cell collision window.
// Produces exactly the rows of Table 1 / Table 2 and the series of
// Figures 8-10.
#pragma once

#include <optional>

#include "core/cost_model.hpp"
#include "core/decomposition.hpp"
#include "netsim/switch_model.hpp"

namespace gc::core {

struct ClusterScenario {
  Int3 lattice{80, 80, 80};
  netsim::NodeGrid grid{};
  NodePerfProfile node = NodePerfProfile::paper_node();
  netsim::NetSpec net = netsim::NetSpec::gigabit_ethernet();
  /// Barrier per schedule step; default: the paper's rule (<= 16 nodes).
  std::optional<bool> barrier;
  /// Route diagonal traffic indirectly (the paper's design). Direct mode
  /// adds unscheduled second-nearest-neighbor messages (ablation A1).
  bool indirect_diagonals = true;
};

/// Per-step timing, in milliseconds — the columns of Table 1.
struct StepBreakdown {
  int nodes = 1;
  double cpu_total_ms = 0;       ///< CPU cluster (network hidden by thread 2)
  double gpu_compute_ms = 0;     ///< incl. boundary eval + gather passes
  double gpu_cpu_comm_ms = 0;    ///< AGP read-back + write-back
  double net_total_ms = 0;       ///< full network exchange time
  double net_nonoverlap_ms = 0;  ///< part exceeding the overlap window
  double overlap_window_ms = 0;  ///< inner-cell collision time
  double gpu_total_ms = 0;       ///< compute + bus + non-overlapped network

  double speedup() const { return cpu_total_ms / gpu_total_ms; }
};

/// The per-step costs of the busiest node (largest block, then most
/// neighbors) — the critical path that both the closed-form breakdown
/// (ClusterSimulator) and the event timeline (simulate_overlapped_step)
/// price, computed once here so the two models cannot drift apart.
struct BusiestNodeCost {
  i64 cells = 0;            ///< cells of the busiest node's block
  int degree = 0;           ///< its axial neighbors
  double compute_ms = 0;    ///< GPU compute incl. border-gather passes
  double window_ms = 0;     ///< inner-cell collision (the overlap window)
  double readback_ms = 0;   ///< GPU->CPU border read-back, all faces
  double writeback_ms = 0;  ///< CPU->GPU ghost write-back, all faces
  double network_ms = 0;    ///< scheduled exchange (+ direct diagonals)
};

BusiestNodeCost busiest_node_cost(const ClusterScenario& sc);

class ClusterSimulator {
 public:
  StepBreakdown simulate_step(const ClusterScenario& sc) const;

  /// Per-pair payloads for every schedule step (face bytes + piggybacked
  /// diagonal chunks), computed analytically from the decomposition. Same
  /// name and shape as ParallelLbm::traffic_bytes_per_step — the analytic
  /// prediction of exactly what the functional layer measures, asserted
  /// equal in the test suite.
  static netsim::TrafficMatrix traffic_bytes_per_step(
      const Decomposition3& decomp, const netsim::CommSchedule& sched,
      bool indirect_diagonals);
};

}  // namespace gc::core
