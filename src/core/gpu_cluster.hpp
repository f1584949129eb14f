// The full-stack functional reproduction of the paper's system: each
// logical cluster node owns a *simulated GPU* (texture stacks + fragment
// programs) running the LBM, border distributions are gathered on-GPU and
// read back over the simulated AGP bus, exchanged across MpiLite following
// the pairwise schedule with two-hop diagonal routing, written back into
// the neighbor GPUs' ghost layers, and streaming proceeds on-GPU.
// The exchange is core::ClusterExchange over a GpuNode per rank — the same
// routine core::ParallelLbm runs over host lattices — so the two drivers
// put the same messages on the wire, node for node, and produce results
// bit-identical to each other and to the serial reference.
#pragma once

#include <memory>
#include <vector>

#include "core/border_exchange.hpp"
#include "core/decomposition.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "netsim/mpilite.hpp"
#include "netsim/schedule.hpp"
#include "obs/trace.hpp"

namespace gc::core {

struct GpuClusterConfig {
  Real tau = Real(0.8);
  /// Node arrangement; 2D only (dims.z == 1), as in the paper's Table 1.
  netsim::NodeGrid grid;
  gpusim::GpuSpec gpu = gpusim::GpuSpec::geforce_fx5800_ultra();
  gpusim::BusSpec bus = gpusim::BusSpec::agp8x();
  /// Selects how the one border-exchange routine is called, exactly as
  /// ParallelConfig::overlap: the synchronous ordering (schedule rounds,
  /// then a full streaming render) or the executed §4.4 overlap (post
  /// every round, render the inner streaming rectangle while messages
  /// are in flight, wait, write ghosts, render the outer strips).
  /// Bit-identical either way (same per-texel programs, each texel
  /// rendered exactly once) and the same messages on the wire.
  bool overlap = false;
  /// Fluid-cell-balanced cut placement (same semantics as
  /// ParallelConfig::fluid_balanced): the cut planes follow the global
  /// lattice's marginal non-solid histograms instead of uniform splits.
  /// Topology and results are unchanged; only block extents move.
  bool fluid_balanced = false;
  /// When set, every node emits the same spans as ParallelLbm in the
  /// same ordering (tid = node): collide, then exchange / pack / unpack
  /// per schedule round and stream, or overlap.pack / overlap.inner /
  /// overlap.wait / overlap.unpack / overlap.outer. The overlapped
  /// ordering also publishes the mpi.overlap_hidden_ms gauge from run().
  /// Not owned.
  obs::TraceRecorder* trace = nullptr;
};

class GpuClusterLbm {
 public:
  /// Scatters `global` across the node grid; one simulated GPU per node.
  GpuClusterLbm(const lbm::Lattice& global, GpuClusterConfig cfg);

  const Decomposition3& decomposition() const { return ex_.decomposition(); }
  const netsim::CommSchedule& schedule() const { return ex_.schedule(); }

  /// Advances every node `steps` LBM steps (one MpiLite rank per node).
  void run(int steps);

  /// Reassembles the owned regions into a global lattice.
  void gather(lbm::Lattice& out) const;

  /// Sum of all nodes' simulated-GPU time ledgers.
  gpusim::GpuTimeLedger total_ledger() const;

  /// Cumulative network time node `node` hid under its inner streaming
  /// render (overlap mode only; 0 otherwise).
  double overlap_hidden_ms(int node) const { return ex_.hidden_ms(node); }

  /// The underlying communicator world (read-only): per-rank traffic.
  const netsim::MpiLite& world() const { return ex_.world(); }

 private:
  void node_step(netsim::Comm& comm, int node);

  GpuClusterConfig cfg_;
  ClusterExchange ex_;
  std::vector<std::unique_ptr<GpuNode>> nodes_;
};

}  // namespace gc::core
