#include "core/cluster_sim.hpp"

#include <algorithm>
#include <cmath>

#include "gpusim/bus.hpp"

namespace gc::core {

netsim::TrafficMatrix ClusterSimulator::traffic_bytes_per_step(
    const Decomposition3& decomp, const netsim::CommSchedule& sched,
    bool indirect_diagonals) {
  const auto rb = static_cast<i64>(sizeof(Real));
  netsim::TrafficMatrix bytes(sched.steps.size());
  const netsim::NodeGrid& grid = sched.grid;

  for (std::size_t k = 0; k < sched.steps.size(); ++k) {
    const auto& step = sched.steps[k];
    bytes[k].assign(step.size(), 0);
    for (std::size_t pi = 0; pi < step.size(); ++pi) {
      const netsim::ExchangePair& p = step[pi];
      const int face = netsim::face_toward(grid.coords(p.b) - grid.coords(p.a));
      bytes[k][pi] += decomp.face_area(p.a, face) * 5 * rb;
    }
  }

  if (indirect_diagonals) {
    for (const netsim::IndirectRoute& r : netsim::plan_indirect_routes(sched)) {
      const Int3 off = grid.coords(r.dst) - grid.coords(r.src);
      int free_axis = 0;
      for (int a = 0; a < 3; ++a) {
        if (off[a] == 0) free_axis = a;
      }
      const i64 sz = decomp.block(r.src).size()[free_axis] * rb;
      auto add = [&](int step, int na, int nb) {
        const auto want = std::minmax(na, nb);
        auto& pairs = sched.steps[static_cast<std::size_t>(step)];
        for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
          if (std::minmax(pairs[pi].a, pairs[pi].b) == want) {
            bytes[static_cast<std::size_t>(step)][pi] += sz;
            return;
          }
        }
      };
      add(r.first_step, r.src, r.via);
      add(r.second_step, r.via, r.dst);
    }
  }
  return bytes;
}

BusiestNodeCost busiest_node_cost(const ClusterScenario& sc) {
  const Decomposition3 decomp(sc.lattice, sc.grid);
  const int n = sc.grid.num_nodes();
  BusiestNodeCost out;

  int busiest = 0;
  for (int node = 0; node < n; ++node) {
    const i64 c = decomp.block(node).num_cells();
    const int d = static_cast<int>(decomp.axial_neighbors(node).size());
    if (c > out.cells || (c == out.cells && d > out.degree)) {
      out.cells = c;
      out.degree = d;
      busiest = node;
    }
  }

  const double cells = static_cast<double>(out.cells);
  out.compute_ms = sc.node.gpu_ns_per_cell * cells * 1e-6 +
                   sc.node.gather_pass_s * out.degree * 1e3;
  out.window_ms =
      sc.node.gpu_ns_per_cell * cells * sc.node.overlap_fraction * 1e-6;

  // GPU<->CPU bus traffic: one gathered read-back and one write-back per
  // neighbor face.
  gpusim::Bus bus(sc.node.bus);
  for (const auto& [face, nb] : decomp.axial_neighbors(busiest)) {
    (void)nb;
    const i64 bytes =
        decomp.face_area(busiest, face) * 5 * static_cast<i64>(sizeof(Real));
    out.readback_ms += bus.upload_cost(bytes) * 1e3;
    out.writeback_ms += bus.download_cost(bytes) * 1e3;
  }

  if (n > 1) {
    const netsim::CommSchedule sched = netsim::CommSchedule::pairwise(sc.grid);
    const netsim::SwitchModel sw(sc.net);
    const bool barrier = sc.barrier.value_or(netsim::NetSpec::auto_barrier(n));
    const auto bytes = ClusterSimulator::traffic_bytes_per_step(
        decomp, sched, sc.indirect_diagonals);
    out.network_ms = sw.scheduled_seconds(sched, bytes, barrier).total_s * 1e3;

    if (!sc.indirect_diagonals) {
      // Ablation: direct second-nearest-neighbor messages, unscheduled.
      std::vector<netsim::Message> diag;
      for (int node = 0; node < n; ++node) {
        for (const Int3 off : netsim::diagonal_offsets()) {
          const int nb2 = decomp.neighbor(node, off);
          if (nb2 < 0) continue;
          const int free_axis = off.x == 0 ? 0 : (off.y == 0 ? 1 : 2);
          const i64 sz = decomp.block(node).size()[free_axis] *
                         static_cast<i64>(sizeof(Real));
          diag.push_back(netsim::Message{node, nb2, sz});
        }
      }
      out.network_ms += sw.direct_exchange_seconds(diag, n) * 1e3;
    }
  }
  return out;
}

StepBreakdown ClusterSimulator::simulate_step(const ClusterScenario& sc) const {
  const BusiestNodeCost c = busiest_node_cost(sc);
  const int n = sc.grid.num_nodes();
  StepBreakdown out;
  out.nodes = n;

  const double log2n = n > 1 ? std::log2(static_cast<double>(n)) : 0.0;
  out.cpu_total_ms = sc.node.cpu_ns_per_cell * static_cast<double>(c.cells) *
                     (1.0 + sc.node.cpu_jitter_coef * log2n) * 1e-6;
  out.gpu_compute_ms = c.compute_ms;
  out.overlap_window_ms = c.window_ms;
  out.gpu_cpu_comm_ms = c.readback_ms + c.writeback_ms;
  out.net_total_ms = c.network_ms;
  out.net_nonoverlap_ms =
      std::max(0.0, out.net_total_ms - out.overlap_window_ms);
  out.gpu_total_ms =
      out.gpu_compute_ms + out.gpu_cpu_comm_ms + out.net_nonoverlap_ms;
  return out;
}

}  // namespace gc::core
