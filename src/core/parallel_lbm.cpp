#include "core/parallel_lbm.hpp"

#include "netsim/tags.hpp"
#include "util/timer.hpp"

namespace gc::core {

using netsim::Comm;

ParallelLbm::ParallelLbm(const lbm::Lattice& global, ParallelConfig cfg)
    : cfg_(cfg),
      ex_(global, cfg.grid, cfg.fluid_balanced) {
  if (cfg_.faults) ex_.world().set_fault_spec(cfg_.faults);
  ex_.world().set_reliability(cfg_.reliability);
  lbm::check_collide_step(cfg_, cfg_.thermal.has_value());
  if (cfg_.thermal) {
    GC_CHECK_MSG(cfg_.grid.dims.z == 1 || !cfg_.thermal->dirichlet_z,
                 "Dirichlet plates need an undecomposed z axis");
  }

  const int n = ex_.num_nodes();
  std::vector<std::unique_ptr<lbm::Lattice>> lattices;
  for (int node = 0; node < n; ++node) {
    const LocalDomain& ld = ex_.domain(node);
    std::unique_ptr<lbm::Lattice> lat =
        ex_.scatter(global, node, cfg_.storage);
    if (cfg_.thermal) {
      auto field = std::make_unique<lbm::ThermalField>(ld.local_dim(),
                                                       *cfg_.thermal);
      if (cfg_.initial_temperature) {
        GC_CHECK(static_cast<i64>(cfg_.initial_temperature->size()) ==
                 global.num_cells());
        const Int3 dl = ld.local_dim();
        for (int z = 0; z < dl.z; ++z) {
          for (int y = 0; y < dl.y; ++y) {
            for (int x = 0; x < dl.x; ++x) {
              const Int3 g = Int3{x, y, z} + ld.global.lo - ld.ghost_lo;
              field->set_t(lat->idx(x, y, z),
                           (*cfg_.initial_temperature)[static_cast<
                               std::size_t>(global.idx(g))]);
            }
          }
        }
      }
      thermals_.push_back(std::move(field));
    }
    lattices.push_back(std::move(lat));
  }
  // Every lattice exists before any node classifies its cells:
  // interleaving the classifications with the lattice builds changes the
  // heap layout, which moved the benchmark scenes' peak RSS by 1 to 5%.
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int node = 0; node < n; ++node) {
    nodes_.push_back(std::make_unique<HostNode>(
        std::move(lattices[static_cast<std::size_t>(node)]), ex_.domain(node)));
  }
}

void ParallelLbm::node_step(Comm& comm, int node, i64 global_step) {
  HostNode& host = *nodes_[static_cast<std::size_t>(node)];
  lbm::Lattice& lat = host.lattice();
  const LocalDomain& ld = ex_.domain(node);
  obs::TraceRecorder* rec = cfg_.trace;
  const lbm::CellBox own{ld.own_lo(), ld.own_hi()};

  if (cfg_.faults && cfg_.faults->should_crash(node, global_step)) {
    if (rec) rec->add_counter("ft.crashes", node, 1);
    throw netsim::RankCrashError("injected crash of rank " +
                                 std::to_string(node) + " at step " +
                                 std::to_string(global_step));
  }

  lbm::ThermalField* thermal = nullptr;
  if (!thermals_.empty()) {
    thermal = thermals_[static_cast<std::size_t>(node)].get();
    // Refresh the temperature ghosts with the neighbors' end-of-step
    // values: one scalar message per face swap. Sends are buffered, so
    // posting every face before the first receive cannot deadlock.
    obs::ScopedSpan ex(rec, "exchange", node, "net");
    const ExchangePlan& plan = ex_.plan(node);
    for (const FaceSwap& f : plan.faces) {
      comm.send(f.peer, netsim::kThermalFace,
                pack_face_scalar(*thermal, lat, ld, f.face));
    }
    for (const FaceSwap& f : plan.faces) {
      unpack_face_scalar(*thermal, lat, ld, f.face,
                         comm.recv(f.peer, netsim::kThermalFace));
    }
  }

  const lbm::StepContext ctx{nullptr, rec, node};
  lbm::collide_step(lat, cfg_, Vec3{}, thermal, ctx, own);
  ex_.exchange_and_stream(comm, host, cfg_.overlap, rec);
  lbm::check_divergence(lat, cfg_.sentinel, global_step + 1, ctx, own);
}

obs::RunStats ParallelLbm::run(int steps) {
  obs::RunStats rs;
  obs::TraceRecorder* rec = cfg_.trace;
  netsim::MpiLite& world = ex_.world();
  const std::size_t ev0 = rec ? rec->num_events() : 0;
  std::vector<netsim::RankTraffic> before;
  std::vector<netsim::ReliabilityStats> rel_before;
  if (rec) {
    for (int r = 0; r < world.size(); ++r) {
      before.push_back(world.rank_traffic(r));
      rel_before.push_back(world.reliability_stats(r));
    }
  }

  const i64 step0 = step_;
  Timer t;
  world.run([this, steps, step0](Comm& comm) {
    for (int s = 0; s < steps; ++s) {
      node_step(comm, comm.rank(), step0 + s);
    }
  });
  step_ += steps;  // only reached when every rank succeeded
  rs.steps = steps;
  rs.wall_ms = t.millis();

  if (rec) {
    rs.phases = rec->phase_totals(ev0);
    const auto real_bytes = static_cast<i64>(sizeof(Real));
    for (int r = 0; r < world.size(); ++r) {
      const netsim::RankTraffic d = world.rank_traffic(r);
      const netsim::RankTraffic& b = before[static_cast<std::size_t>(r)];
      rec->add_counter("mpi.messages", r, d.messages - b.messages);
      rec->add_counter("mpi.bytes", r,
                       (d.payload_values - b.payload_values) * real_bytes);
      if (cfg_.faults) {
        const netsim::ReliabilityStats rd = world.reliability_stats(r);
        const netsim::ReliabilityStats& rb =
            rel_before[static_cast<std::size_t>(r)];
        rec->add_counter("ft.retransmits", r,
                         rd.retransmits - rb.retransmits);
        rec->add_counter("ft.corrupt_detected", r,
                         rd.corrupt_detected - rb.corrupt_detected);
        rec->add_counter("ft.duplicates_dropped", r,
                         rd.duplicates_dropped - rb.duplicates_dropped);
        rec->add_counter("ft.recv_timeouts", r, rd.timeouts - rb.timeouts);
      }
      if (cfg_.overlap) {
        rec->set_gauge("mpi.overlap_hidden_ms", r, ex_.hidden_ms(r));
      }
      rec->set_gauge("lattice.bytes_allocated", r,
                     static_cast<double>(local(r).storage_bytes()));
    }
  }
  return rs;
}

void ParallelLbm::restore_local(int node, const lbm::Lattice& saved) {
  GC_CHECK_MSG(node >= 0 && node < ex_.num_nodes(), "invalid node " << node);
  lbm::Lattice& lat = nodes_[static_cast<std::size_t>(node)]->lattice();
  GC_CHECK_MSG(saved.dim() == lat.dim(),
               "checkpoint dimensions " << saved.dim()
                                        << " do not match local lattice "
                                        << lat.dim());
  lat.copy_distributions_from(saved);
}

void ParallelLbm::gather(lbm::Lattice& out) const {
  for (int node = 0; node < ex_.num_nodes(); ++node) {
    ex_.gather(local(node), node, out);
  }
}

void ParallelLbm::gather_temperature(std::vector<Real>& out) const {
  GC_CHECK_MSG(!thermals_.empty(), "no thermal field in this run");
  const Int3 d = ex_.decomposition().lattice_dim();
  out.assign(static_cast<std::size_t>(d.volume()), Real(0));
  for (int node = 0; node < ex_.num_nodes(); ++node) {
    const LocalDomain& ld = ex_.domain(node);
    const lbm::Lattice& lat = local(node);
    const lbm::ThermalField& T = *thermals_[static_cast<std::size_t>(node)];
    const SubDomain& b = ld.global;
    for (int z = b.lo.z; z < b.hi.z; ++z) {
      for (int y = b.lo.y; y < b.hi.y; ++y) {
        for (int x = b.lo.x; x < b.hi.x; ++x) {
          out[static_cast<std::size_t>(x + i64(d.x) * (y + i64(d.y) * z))] =
              T.t(lat.idx(ld.to_local(Int3{x, y, z})));
        }
      }
    }
  }
}

netsim::TrafficMatrix ParallelLbm::traffic_bytes_per_step() const {
  const netsim::CommSchedule& sched = ex_.schedule();
  const netsim::NodeGrid& grid = sched.grid;
  const auto real_bytes = static_cast<i64>(sizeof(Real));
  netsim::TrafficMatrix bytes(sched.steps.size());
  for (std::size_t k = 0; k < sched.steps.size(); ++k) {
    bytes[k].assign(sched.steps[k].size(), 0);
  }

  for (int node = 0; node < ex_.num_nodes(); ++node) {
    const ExchangePlan& plan = ex_.plan(node);
    const LocalDomain& ld = ex_.domain(node);
    for (const FaceSwap& f : plan.faces) {
      i64& pair = bytes[static_cast<std::size_t>(f.round)]
                       [static_cast<std::size_t>(f.pair)];
      // Face payload, one direction per pair (the exchange is symmetric).
      if (node < f.peer) pair += face_payload_size(ld, f.face) * real_bytes;
      // Diagonal hops ride the face message of their round.
      for (const EdgeChunk& e : plan.edge_sends) {
        if (e.round == f.round) {
          pair += edge_payload_size(ld, e.off) * real_bytes;
        }
      }
      for (const ForwardHop& h : plan.forwards) {
        if (h.send_round == f.round) {
          pair += edge_payload_size(ex_.domain(h.src),
                                    grid.coords(h.dst) - grid.coords(h.src)) *
                  real_bytes;
        }
      }
    }
  }
  return bytes;
}

}  // namespace gc::core
