#include "core/gpu_cluster.hpp"

namespace gc::core {

GpuClusterLbm::GpuClusterLbm(const lbm::Lattice& global, GpuClusterConfig cfg)
    : cfg_(cfg),
      ex_(global, cfg.grid, cfg.fluid_balanced) {
  GC_CHECK_MSG(cfg.grid.dims.z == 1,
               "GpuClusterLbm decomposes in 2D (dims.z must be 1)");
  for (int node = 0; node < ex_.num_nodes(); ++node) {
    nodes_.push_back(std::make_unique<GpuNode>(
        *ex_.scatter(global, node, lbm::StorageMode::AA),
        ex_.domain(node), cfg.tau, cfg.gpu, cfg.bus));
  }
}

void GpuClusterLbm::node_step(netsim::Comm& comm, int node) {
  GpuNode& gpu = *nodes_[static_cast<std::size_t>(node)];
  {
    obs::ScopedSpan span(cfg_.trace, "collide", node, "lbm");
    gpu.collide();
  }
  ex_.exchange_and_stream(comm, gpu, cfg_.overlap, cfg_.trace);
}

void GpuClusterLbm::run(int steps) {
  ex_.world().run([this, steps](netsim::Comm& comm) {
    for (int s = 0; s < steps; ++s) node_step(comm, comm.rank());
  });
  if (cfg_.trace && cfg_.overlap) {
    for (int r = 0; r < ex_.num_nodes(); ++r) {
      cfg_.trace->set_gauge("mpi.overlap_hidden_ms", r, ex_.hidden_ms(r));
    }
  }
}

void GpuClusterLbm::gather(lbm::Lattice& out) const {
  for (int node = 0; node < ex_.num_nodes(); ++node) {
    lbm::Lattice local(ex_.domain(node).local_dim());
    nodes_[static_cast<std::size_t>(node)]->copy_state_to_host(local);
    ex_.gather(local, node, out);
  }
}

gpusim::GpuTimeLedger GpuClusterLbm::total_ledger() const {
  gpusim::GpuTimeLedger total;
  for (const auto& node : nodes_) {
    const gpusim::GpuTimeLedger& l = node->device().ledger();
    total.compute_s += l.compute_s;
    total.download_s += l.download_s;
    total.readback_s += l.readback_s;
    total.passes += l.passes;
    total.fragments += l.fragments;
    total.tex_fetches += l.tex_fetches;
  }
  return total;
}

}  // namespace gc::core
