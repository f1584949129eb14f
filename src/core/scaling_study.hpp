// Scaling-study drivers shared by the benchmarks: the weak-scaling sweep
// behind Table 1 / Table 2 / Figures 8-10 (fixed 80^3 per node, 2D node
// arrangements) and the fixed-problem-size strong-scaling sweep of the
// last paragraph of Section 4.4.
#pragma once

#include <vector>

#include "core/cluster_sim.hpp"

namespace gc::core {

/// Node counts reported by the paper's Table 1.
std::vector<int> paper_node_counts();

/// Weak scaling: every node computes `per_node` cells; the lattice grows
/// with the node grid (2D arrangements, as in Table 1).
std::vector<StepBreakdown> weak_scaling(
    Int3 per_node, const std::vector<int>& node_counts,
    const NodePerfProfile& node = NodePerfProfile::paper_node(),
    const netsim::NetSpec& net = netsim::NetSpec::gigabit_ethernet());

/// Strong scaling: a fixed lattice split across more and more nodes.
std::vector<StepBreakdown> strong_scaling(
    Int3 lattice, const std::vector<int>& node_counts,
    const NodePerfProfile& node = NodePerfProfile::paper_node(),
    const netsim::NetSpec& net = netsim::NetSpec::gigabit_ethernet());

/// Table-2 style throughput rows derived from a weak-scaling series.
struct ThroughputRow {
  int nodes;
  double mcells_per_s;   ///< million lattice cells updated per second
  double speedup_vs_1;   ///< rate_n / rate_1
  double efficiency;     ///< speedup / n
};
std::vector<ThroughputRow> throughput_rows(
    const std::vector<StepBreakdown>& series, i64 cells_per_node);

}  // namespace gc::core
