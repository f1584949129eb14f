// Ablation A1 (Section 4.3): the paper routes second-nearest-neighbor
// (diagonal) traffic indirectly in two axial hops piggybacked on the
// scheduled messages, instead of adding direct diagonal exchanges. This
// bench compares modeled network time for both designs; the executed
// solvers run the two-hop route only, so the direct alternative exists
// here as a model.
#include "core/cluster_sim.hpp"
#include "util/table.hpp"

int main() {
  using namespace gc;
  core::ClusterSimulator sim;

  Table t("Ablation: indirect two-hop diagonal routing vs direct exchange");
  t.set_header({"nodes", "net indirect (ms)", "net direct (ms)", "ratio"});
  for (int n : {4, 8, 16, 32}) {
    core::ClusterScenario indirect;
    indirect.grid = netsim::NodeGrid::arrange_2d(n);
    indirect.lattice = Int3{80 * indirect.grid.dims.x,
                            80 * indirect.grid.dims.y, 80};
    core::ClusterScenario direct = indirect;
    direct.indirect_diagonals = false;
    const double ti = sim.simulate_step(indirect).net_total_ms;
    const double td = sim.simulate_step(direct).net_total_ms;
    t.row().cell(long(n)).cell(ti, 1).cell(td, 1).cell(td / ti, 2);
  }
  t.print();
  return 0;
}
