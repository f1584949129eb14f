#include "core/scaling_study.hpp"

namespace gc::core {

std::vector<int> paper_node_counts() {
  return {1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32};
}

std::vector<StepBreakdown> weak_scaling(Int3 per_node,
                                        const std::vector<int>& node_counts,
                                        const NodePerfProfile& node,
                                        const netsim::NetSpec& net) {
  ClusterSimulator sim;
  std::vector<StepBreakdown> out;
  out.reserve(node_counts.size());
  for (int n : node_counts) {
    ClusterScenario sc;
    sc.grid = netsim::NodeGrid::arrange_2d(n);
    sc.lattice = Int3{per_node.x * sc.grid.dims.x, per_node.y * sc.grid.dims.y,
                      per_node.z * sc.grid.dims.z};
    sc.node = node;
    sc.net = net;
    out.push_back(sim.simulate_step(sc));
  }
  return out;
}

std::vector<StepBreakdown> strong_scaling(Int3 lattice,
                                          const std::vector<int>& node_counts,
                                          const NodePerfProfile& node,
                                          const netsim::NetSpec& net) {
  ClusterSimulator sim;
  std::vector<StepBreakdown> out;
  out.reserve(node_counts.size());
  for (int n : node_counts) {
    ClusterScenario sc;
    sc.grid = netsim::NodeGrid::arrange_2d(n);
    sc.lattice = lattice;
    sc.node = node;
    sc.net = net;
    out.push_back(sim.simulate_step(sc));
  }
  return out;
}

std::vector<ThroughputRow> throughput_rows(
    const std::vector<StepBreakdown>& series, i64 cells_per_node) {
  std::vector<ThroughputRow> rows;
  rows.reserve(series.size());
  double rate1 = 0.0;
  for (const StepBreakdown& b : series) {
    const double rate = static_cast<double>(cells_per_node) * b.nodes /
                        (b.gpu_total_ms * 1e-3) / 1e6;
    if (b.nodes == 1) rate1 = rate;
    ThroughputRow r;
    r.nodes = b.nodes;
    r.mcells_per_s = rate;
    r.speedup_vs_1 = rate1 > 0 ? rate / rate1 : 0.0;
    r.efficiency = b.nodes > 0 ? r.speedup_vs_1 / b.nodes : 0.0;
    rows.push_back(r);
  }
  return rows;
}

}  // namespace gc::core
