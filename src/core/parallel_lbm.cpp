#include "core/parallel_lbm.hpp"

#include <algorithm>

#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "netsim/tags.hpp"
#include "util/timer.hpp"

namespace gc::core {

using lbm::CellType;
using lbm::FaceBc;
using netsim::Comm;
using netsim::Payload;

namespace {
Decomposition3 make_decomposition(const lbm::Lattice& global,
                                  const ParallelConfig& cfg) {
  return cfg.fluid_balanced
             ? Decomposition3(global.dim(), cfg.grid, global.flags())
             : Decomposition3(global.dim(), cfg.grid);
}
}  // namespace

ParallelLbm::ParallelLbm(const lbm::Lattice& global, ParallelConfig cfg)
    : cfg_(cfg),
      decomp_(make_decomposition(global, cfg)),
      sched_(netsim::CommSchedule::pairwise(cfg.grid)),
      world_(cfg.grid.num_nodes()) {
  GC_CHECK_MSG(global.curved_links().empty(),
               "the distributed solver supports flag-based boundaries only");
  for (int a = 0; a < 3; ++a) {
    if (cfg.grid.dims[a] > 1) {
      GC_CHECK_MSG(
          global.face_bc(static_cast<lbm::Face>(2 * a)) != FaceBc::Periodic &&
              global.face_bc(static_cast<lbm::Face>(2 * a + 1)) !=
                  FaceBc::Periodic,
          "axis " << a << " is decomposed across nodes and cannot be periodic");
    }
  }
  if (cfg_.indirect_diagonals) {
    routes_ = netsim::plan_indirect_routes(sched_);
  }
  if (cfg_.faults) world_.set_fault_spec(cfg_.faults);
  world_.set_reliability(cfg_.reliability);
  if (cfg_.thermal) {
    GC_CHECK_MSG(cfg_.collision == lbm::CollisionKind::MRT,
                 "the hybrid thermal model couples to the MRT collision");
    GC_CHECK_MSG(cfg_.grid.dims.z == 1 || !cfg_.thermal->dirichlet_z,
                 "Dirichlet plates need an undecomposed z axis");
  }

  const int n = decomp_.num_nodes();
  domains_.reserve(static_cast<std::size_t>(n));
  locals_.reserve(static_cast<std::size_t>(n));
  forward_store_.resize(static_cast<std::size_t>(n));

  for (int node = 0; node < n; ++node) {
    const LocalDomain ld = LocalDomain::make(decomp_, node);
    domains_.push_back(ld);
    // Seed in the natural double-buffered layout — the loop below
    // interleaves flag and value writes, which would thrash a sparse
    // remap — and convert to the requested storage once the local
    // geometry is final.
    auto lat = std::make_unique<lbm::Lattice>(ld.local_dim());

    // Face boundary conditions: global faces keep the global BC; faces
    // toward neighbors are covered by the ghost layer and never consulted
    // by owned-cell pulls (Outflow keeps ghost streaming cheap and local).
    for (int face = 0; face < 6; ++face) {
      const int axis = face / 2;
      const bool has_neighbor =
          (face % 2 == 0) ? ld.ghost_lo[axis] == 1 : ld.ghost_hi[axis] == 1;
      lat->set_face_bc(static_cast<lbm::Face>(face),
                       has_neighbor
                           ? FaceBc::Outflow
                           : global.face_bc(static_cast<lbm::Face>(face)));
    }
    lat->set_inlet(global.inlet_density(), global.inlet_velocity());
    if (global.has_inlet_profile()) {
      // Local coordinates shift by the block origin minus the ghost rim.
      // The profile is copied by value: the global lattice need not
      // outlive this solver.
      const Int3 shift = ld.global.lo - ld.ghost_lo;
      lat->set_inlet_profile(
          [profile = global.inlet_profile(), shift](Int3 local) {
            return profile(local + shift);
          });
    }

    // Copy flags and distributions for every local cell (ghosts included:
    // ghost flags persist; ghost f is refreshed by each step's exchange).
    const Int3 dl = ld.local_dim();
    for (int z = 0; z < dl.z; ++z) {
      for (int y = 0; y < dl.y; ++y) {
        for (int x = 0; x < dl.x; ++x) {
          const Int3 g = Int3{x, y, z} + ld.global.lo - ld.ghost_lo;
          GC_CHECK(global.in_bounds(g));
          const i64 lc = lat->idx(x, y, z);
          const i64 gcell = global.idx(g);
          lat->set_flag(lc, global.flag(gcell));
          for (int i = 0; i < lbm::Q; ++i) {
            lat->set_f(i, lc, global.f(i, gcell));
          }
        }
      }
    }
    if (cfg_.storage != lbm::StorageMode::DoubleBuffer) {
      lat->convert_storage(cfg_.storage);
    }
    if (cfg_.thermal) {
      auto field = std::make_unique<lbm::ThermalField>(ld.local_dim(),
                                                       *cfg_.thermal);
      if (cfg_.initial_temperature) {
        GC_CHECK(static_cast<i64>(cfg_.initial_temperature->size()) ==
                 global.num_cells());
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
      scratch_u_.emplace_back(
          static_cast<std::size_t>(ld.local_dim().volume()));
      scratch_force_.emplace_back();
    }
    locals_.push_back(std::move(lat));
  }

  if (cfg_.overlap) {
    splits_.resize(static_cast<std::size_t>(n));
    hidden_ms_.assign(static_cast<std::size_t>(n), 0.0);
    for (int node = 0; node < n; ++node) {
      splits_[static_cast<std::size_t>(node)].build(
          *locals_[static_cast<std::size_t>(node)],
          domains_[static_cast<std::size_t>(node)].ghost_lo,
          domains_[static_cast<std::size_t>(node)].ghost_hi);
    }
  }
}

double ParallelLbm::overlap_hidden_ms(int node) const {
  GC_CHECK_MSG(node >= 0 && node < decomp_.num_nodes(),
               "invalid node " << node);
  return cfg_.overlap ? hidden_ms_[static_cast<std::size_t>(node)] : 0.0;
}

void ParallelLbm::node_step(Comm& comm, int node, i64 global_step) {
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
  const netsim::NodeGrid& grid = cfg_.grid;
  const Int3 myc = grid.coords(node);
  obs::TraceRecorder* rec = cfg_.trace;
  const lbm::CellBox own{ld.own_lo(), ld.own_hi()};

  if (cfg_.faults && cfg_.faults->should_crash(node, global_step)) {
    if (rec) rec->add_counter("ft.crashes", node, 1);
    throw netsim::RankCrashError("injected crash of rank " +
                                 std::to_string(node) + " at step " +
                                 std::to_string(global_step));
  }

  if (cfg_.thermal) {
    // Hybrid thermal step, matching lbm::Solver::step's ordering exactly:
    // (1) refresh the temperature ghosts with the neighbors' end-of-step
    // values, (2) FD temperature update using the pre-collision velocity,
    // (3) MRT collision, (4) Boussinesq force on owned cells.
    lbm::ThermalField& T = *thermals_[static_cast<std::size_t>(node)];
    {
      obs::ScopedSpan ex(rec, "exchange", node, "net");
      for (int k = 0; k < sched_.num_steps(); ++k) {
        int partner = -1;
        for (const netsim::ExchangePair& p :
             sched_.steps[static_cast<std::size_t>(k)]) {
          if (p.a == node) partner = p.b;
          if (p.b == node) partner = p.a;
        }
        if (partner < 0) continue;
        const Int3 off = grid.coords(partner) - myc;
        int face = -1;
        for (int a = 0; a < 3; ++a) {
          if (off[a] != 0) face = 2 * a + (off[a] > 0 ? 1 : 0);
        }
        comm.send(partner, netsim::kThermalFace, pack_face_scalar(T, lat, ld, face));
        unpack_face_scalar(T, lat, ld, face, comm.recv(partner, netsim::kThermalFace));
      }
    }
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    auto& u = scratch_u_[static_cast<std::size_t>(node)];
    lbm::compute_velocity_region(lat, u, ld.own_lo(), ld.own_hi());
    T.step(lat, u);
    lbm::collide_mrt(lat, lbm::MrtParams::standard(cfg_.tau), {}, own);
    auto& force = scratch_force_[static_cast<std::size_t>(node)];
    T.buoyancy_force(lat, force);
    lbm::apply_force_first_order_region(lat, force, ld.own_lo(),
                                        ld.own_hi());
  } else if (cfg_.collision == lbm::CollisionKind::MRT) {
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    lbm::collide_mrt(lat, lbm::MrtParams::standard(cfg_.tau), {}, own);
  } else {
    obs::ScopedSpan collide_span(rec, "collide", node, "lbm");
    lbm::collide_bgk(lat, lbm::BgkParams{cfg_.tau, Vec3{}}, {}, own);
  }

  if (cfg_.overlap) {
    overlap_exchange_and_stream(comm, node);
  } else {
    sync_exchange_and_stream(comm, node);
  }

  if (cfg_.sentinel &&
      (global_step + 1) % std::max(1, cfg_.sentinel->every) == 0) {
    obs::ScopedSpan span(rec, "sentinel", node, "ft");
    if (auto report =
            lbm::scan_divergence(lat, ld.own_lo(), ld.own_hi(),
                                 *cfg_.sentinel)) {
      if (rec) rec->add_counter("ft.divergences", node, 1);
      throw lbm::DivergenceError(*report, global_step + 1, node);
    }
  }
}

void ParallelLbm::sync_exchange_and_stream(Comm& comm, int node) {
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
  const netsim::NodeGrid& grid = cfg_.grid;
  const Int3 myc = grid.coords(node);
  obs::TraceRecorder* rec = cfg_.trace;
  auto& store = forward_store_[static_cast<std::size_t>(node)];

  for (int k = 0; k < sched_.num_steps(); ++k) {
    // One span per schedule step; pack/unpack nest inside it.
    obs::ScopedSpan ex(rec, "exchange", node, "net");
    // My partner in this step, if any.
    int partner = -1;
    for (const netsim::ExchangePair& p :
         sched_.steps[static_cast<std::size_t>(k)]) {
      if (p.a == node) partner = p.b;
      if (p.b == node) partner = p.a;
    }
    int face = -1;
    if (partner >= 0) {
      const Int3 off = grid.coords(partner) - myc;
      for (int a = 0; a < 3; ++a) {
        if (off[a] != 0) face = 2 * a + (off[a] > 0 ? 1 : 0);
      }
      netsim::Payload payload;
      {
        obs::ScopedSpan pack(rec, "pack", node, "net");
        payload = pack_face(lat, ld, face);
      }
      comm.send(partner, netsim::kFace, std::move(payload));
    }

    if (cfg_.indirect_diagonals) {
      for (const netsim::IndirectRoute& r : routes_) {
        if (r.src == node && r.first_step == k) {
          const Int3 off = grid.coords(r.dst) - myc;
          comm.send(r.via, netsim::kHop1Base + r.dst, pack_edge(lat, ld, off));
        }
        if (r.via == node && r.second_step == k) {
          auto it = store.find({r.src, r.dst});
          GC_CHECK_MSG(it != store.end(),
                       "missing forwarded chunk " << r.src << "->" << r.dst);
          comm.send(r.dst, netsim::kHop2Base + r.src, std::move(it->second));
          store.erase(it);
        }
      }
    }

    if (partner >= 0) {
      const netsim::Payload payload = comm.recv(partner, netsim::kFace);
      obs::ScopedSpan unpack(rec, "unpack", node, "net");
      unpack_face(lat, ld, face, payload);
    }
    if (cfg_.indirect_diagonals) {
      for (const netsim::IndirectRoute& r : routes_) {
        if (r.via == node && r.first_step == k) {
          store[{r.src, r.dst}] = comm.recv(r.src, netsim::kHop1Base + r.dst);
        }
        if (r.dst == node && r.second_step == k) {
          const Int3 off = grid.coords(r.src) - myc;
          unpack_edge(lat, ld, off, comm.recv(r.via, netsim::kHop2Base + r.src));
        }
      }
    }
  }

  if (!cfg_.indirect_diagonals) {
    // Ablation mode: direct exchange with all diagonal neighbors.
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        for (int sa = -1; sa <= 1; sa += 2) {
          for (int sb = -1; sb <= 1; sb += 2) {
            Int3 off{0, 0, 0};
            off[a] = sa;
            off[b] = sb;
            const int nb = decomp_.neighbor(node, off);
            if (nb < 0) continue;
            comm.send(nb, netsim::kDirectBase + node, pack_edge(lat, ld, off));
          }
        }
      }
    }
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        for (int sa = -1; sa <= 1; sa += 2) {
          for (int sb = -1; sb <= 1; sb += 2) {
            Int3 off{0, 0, 0};
            off[a] = sa;
            off[b] = sb;
            const int nb = decomp_.neighbor(node, off);
            if (nb < 0) continue;
            unpack_edge(lat, ld, off, comm.recv(nb, netsim::kDirectBase + nb));
          }
        }
      }
    }
  }

  {
    obs::ScopedSpan stream_span(rec, "stream", node, "lbm");
    lbm::stream(lat);
  }
}

void ParallelLbm::overlap_exchange_and_stream(Comm& comm, int node) {
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
  const netsim::NodeGrid& grid = cfg_.grid;
  const Int3 myc = grid.coords(node);
  obs::TraceRecorder* rec = cfg_.trace;
  const lbm::InnerOuterClass& split = splits_[static_cast<std::size_t>(node)];

  // Wire-compatible with the synchronous path: the same payloads travel
  // the same (src, dst, tag) channels, one message per channel per step —
  // only the ordering against local compute changes.
  struct FaceRecv {
    int face;
    netsim::Request req;
  };
  struct EdgeRecv {
    Int3 off;  // sender-relative offset, as unpack_edge expects
    netsim::Request req;
  };
  struct Hop1Recv {
    const netsim::IndirectRoute* route;
    netsim::Request req;
  };
  std::vector<FaceRecv> face_recvs;
  std::vector<EdgeRecv> edge_recvs;   // hop2 / direct-diagonal chunks
  std::vector<Hop1Recv> hop1_recvs;   // chunks to forward as via node

  {
    obs::ScopedSpan pack(rec, "overlap.pack", node, "overlap");
    for (const auto& [face, nb] : decomp_.axial_neighbors(node)) {
      comm.isend(nb, netsim::kFace, pack_face(lat, ld, face));
    }
    if (cfg_.indirect_diagonals) {
      for (const netsim::IndirectRoute& r : routes_) {
        if (r.src == node) {
          comm.isend(r.via, netsim::kHop1Base + r.dst,
                     pack_edge(lat, ld, grid.coords(r.dst) - myc));
        }
      }
    } else {
      for (int a = 0; a < 3; ++a) {
        for (int b = a + 1; b < 3; ++b) {
          for (int sa = -1; sa <= 1; sa += 2) {
            for (int sb = -1; sb <= 1; sb += 2) {
              Int3 off{0, 0, 0};
              off[a] = sa;
              off[b] = sb;
              const int nb = decomp_.neighbor(node, off);
              if (nb < 0) continue;
              comm.isend(nb, netsim::kDirectBase + node, pack_edge(lat, ld, off));
            }
          }
        }
      }
    }

    for (const auto& [face, nb] : decomp_.axial_neighbors(node)) {
      face_recvs.push_back({face, comm.irecv(nb, netsim::kFace)});
    }
    if (cfg_.indirect_diagonals) {
      for (const netsim::IndirectRoute& r : routes_) {
        if (r.via == node) {
          hop1_recvs.push_back({&r, comm.irecv(r.src, netsim::kHop1Base + r.dst)});
        }
        if (r.dst == node) {
          edge_recvs.push_back({grid.coords(r.src) - myc,
                                comm.irecv(r.via, netsim::kHop2Base + r.src)});
        }
      }
    } else {
      for (int a = 0; a < 3; ++a) {
        for (int b = a + 1; b < 3; ++b) {
          for (int sa = -1; sa <= 1; sa += 2) {
            for (int sb = -1; sb <= 1; sb += 2) {
              Int3 off{0, 0, 0};
              off[a] = sa;
              off[b] = sb;
              const int nb = decomp_.neighbor(node, off);
              if (nb < 0) continue;
              edge_recvs.push_back({off, comm.irecv(nb, netsim::kDirectBase + nb)});
            }
          }
        }
      }
    }
  }

  // The compute window the paper hides the network under (§4.4).
  const double t_post_us = world_.now_us();
  {
    obs::ScopedSpan inner(rec, "overlap.inner", node, "overlap");
    lbm::stream_inner(lat, split);
  }
  const double t_window_us = world_.now_us();

  double t_arrival_us = t_post_us;
  {
    obs::ScopedSpan wait(rec, "overlap.wait", node, "overlap");
    std::vector<netsim::Request> batch;
    for (const FaceRecv& fr : face_recvs) batch.push_back(fr.req);
    for (const Hop1Recv& hr : hop1_recvs) batch.push_back(hr.req);
    comm.wait_all(batch);
    // Second hop of the indirect diagonal routes: forward the chunks
    // this node carries for others before waiting on its own.
    for (Hop1Recv& hr : hop1_recvs) {
      comm.send(hr.route->dst, netsim::kHop2Base + hr.route->src,
                comm.wait(hr.req));
    }
    std::vector<netsim::Request> batch2;
    for (const EdgeRecv& er : edge_recvs) batch2.push_back(er.req);
    comm.wait_all(batch2);

    for (const FaceRecv& fr : face_recvs) {
      t_arrival_us = std::max(t_arrival_us, fr.req.complete_time_us());
    }
    for (const Hop1Recv& hr : hop1_recvs) {
      t_arrival_us = std::max(t_arrival_us, hr.req.complete_time_us());
    }
    for (const EdgeRecv& er : edge_recvs) {
      t_arrival_us = std::max(t_arrival_us, er.req.complete_time_us());
    }
  }
  // Hidden network time: the slice of the comm-in-flight interval that
  // fell inside the inner-compute window (measured, not modeled).
  hidden_ms_[static_cast<std::size_t>(node)] +=
      std::max(0.0, std::min(t_arrival_us, t_window_us) - t_post_us) * 1e-3;

  {
    obs::ScopedSpan unpack(rec, "overlap.unpack", node, "overlap");
    for (FaceRecv& fr : face_recvs) {
      unpack_face(lat, ld, fr.face, comm.wait(fr.req));
    }
    for (EdgeRecv& er : edge_recvs) {
      unpack_edge(lat, ld, er.off, comm.wait(er.req));
    }
  }

  {
    obs::ScopedSpan outer(rec, "overlap.outer", node, "overlap");
    lbm::stream_outer(lat, split);
  }
}

obs::RunStats ParallelLbm::run(int steps) {
  obs::RunStats rs;
  obs::TraceRecorder* rec = cfg_.trace;
  const std::size_t ev0 = rec ? rec->num_events() : 0;
  std::vector<netsim::RankTraffic> before;
  std::vector<netsim::ReliabilityStats> rel_before;
  if (rec) {
    for (int r = 0; r < world_.size(); ++r) {
      before.push_back(world_.rank_traffic(r));
      rel_before.push_back(world_.reliability_stats(r));
    }
  }

  const i64 step0 = step_;
  Timer t;
  world_.run([this, steps, step0](Comm& comm) {
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
    for (int r = 0; r < world_.size(); ++r) {
      const netsim::RankTraffic d = world_.rank_traffic(r);
      const netsim::RankTraffic& b = before[static_cast<std::size_t>(r)];
      rec->add_counter("mpi.messages", r, d.messages - b.messages);
      rec->add_counter("mpi.bytes", r,
                       (d.payload_values - b.payload_values) * real_bytes);
      rec->add_counter("mpi.barrier_waits", r,
                       d.barrier_waits - b.barrier_waits);
      if (cfg_.faults) {
        const netsim::ReliabilityStats rd = world_.reliability_stats(r);
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
        rec->set_gauge("mpi.overlap_hidden_ms", r,
                       hidden_ms_[static_cast<std::size_t>(r)]);
      }
      rec->set_gauge(
          "lattice.bytes_allocated", r,
          static_cast<double>(
              locals_[static_cast<std::size_t>(r)]->storage_bytes()));
    }
  }
  return rs;
}

void ParallelLbm::restore_local(int node, const lbm::Lattice& saved) {
  GC_CHECK_MSG(node >= 0 && node < decomp_.num_nodes(),
               "invalid node " << node);
  lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
  GC_CHECK_MSG(saved.dim() == lat.dim(),
               "checkpoint dimensions " << saved.dim()
                                        << " do not match local lattice "
                                        << lat.dim());
  lat.copy_distributions_from(saved);
}

void ParallelLbm::reset_comm() {
  world_.reset();
  for (auto& store : forward_store_) store.clear();
}

void ParallelLbm::gather(lbm::Lattice& out) const {
  GC_CHECK(out.dim() == decomp_.lattice_dim());
  for (int node = 0; node < decomp_.num_nodes(); ++node) {
    const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
    const lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
    const SubDomain& b = ld.global;
    for (int z = b.lo.z; z < b.hi.z; ++z) {
      for (int y = b.lo.y; y < b.hi.y; ++y) {
        for (int x = b.lo.x; x < b.hi.x; ++x) {
          const Int3 l = ld.to_local(Int3{x, y, z});
          const i64 lc = lat.idx(l);
          const i64 gcell = out.idx(x, y, z);
          for (int i = 0; i < lbm::Q; ++i) {
            out.set_f(i, gcell, lat.f(i, lc));
          }
        }
      }
    }
  }
}

void ParallelLbm::gather_temperature(std::vector<Real>& out) const {
  GC_CHECK_MSG(!thermals_.empty(), "no thermal field in this run");
  out.assign(static_cast<std::size_t>(decomp_.lattice_dim().volume()),
             Real(0));
  for (int node = 0; node < decomp_.num_nodes(); ++node) {
    const LocalDomain& ld = domains_[static_cast<std::size_t>(node)];
    const lbm::Lattice& lat = *locals_[static_cast<std::size_t>(node)];
    const lbm::ThermalField& T = *thermals_[static_cast<std::size_t>(node)];
    const SubDomain& b = ld.global;
    const Int3 d = decomp_.lattice_dim();
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
  netsim::TrafficMatrix bytes(sched_.steps.size());
  const auto real_bytes = static_cast<i64>(sizeof(Real));

  for (std::size_t k = 0; k < sched_.steps.size(); ++k) {
    const auto& step = sched_.steps[k];
    bytes[k].assign(step.size(), 0);
    for (std::size_t pi = 0; pi < step.size(); ++pi) {
      const netsim::ExchangePair& p = step[pi];
      // Face payload (one direction; the exchange is symmetric).
      const Int3 off =
          cfg_.grid.coords(p.b) - cfg_.grid.coords(p.a);
      int face = -1;
      for (int a = 0; a < 3; ++a) {
        if (off[a] != 0) face = 2 * a + (off[a] > 0 ? 1 : 0);
      }
      bytes[k][pi] +=
          face_payload_size(domains_[static_cast<std::size_t>(p.a)], face) *
          real_bytes;
    }
  }

  // Piggybacked diagonal chunks ride the scheduled pair messages.
  for (const netsim::IndirectRoute& r : routes_) {
    auto add = [&](int step, int na, int nb, i64 sz) {
      const auto want = std::minmax(na, nb);
      const auto& pairs = sched_.steps[static_cast<std::size_t>(step)];
      for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        if (std::minmax(pairs[pi].a, pairs[pi].b) == want) {
          bytes[static_cast<std::size_t>(step)][pi] += sz;
          return;
        }
      }
      GC_CHECK_MSG(false, "route hop not found in schedule");
    };
    const Int3 off = cfg_.grid.coords(r.dst) - cfg_.grid.coords(r.src);
    const i64 sz =
        edge_payload_size(domains_[static_cast<std::size_t>(r.src)], off) *
        real_bytes;
    add(r.first_step, r.src, r.via, sz);
    add(r.second_step, r.via, r.dst, sz);
  }
  return bytes;
}

}  // namespace gc::core
