#include "core/border_exchange.hpp"

#include <algorithm>
#include <utility>

#include "gpulbm/programs.hpp"
#include "lbm/stream.hpp"
#include "netsim/tags.hpp"

namespace gc::core {

using gpulbm::outgoing_directions;
using lbm::C;
using lbm::Face;
using netsim::Comm;
using netsim::Payload;

LocalDomain LocalDomain::make(const Decomposition3& decomp, int node) {
  LocalDomain ld;
  ld.global = decomp.block(node);
  for (int a = 0; a < 3; ++a) {
    Int3 lo_off{0, 0, 0}, hi_off{0, 0, 0};
    lo_off[a] = -1;
    hi_off[a] = +1;
    ld.ghost_lo[a] = decomp.neighbor(node, lo_off) >= 0 ? 1 : 0;
    ld.ghost_hi[a] = decomp.neighbor(node, hi_off) >= 0 ? 1 : 0;
  }
  return ld;
}

lbm::CellBox LocalDomain::inner_box() const {
  const Int3 d = local_dim();
  lbm::CellBox box;
  for (int a = 0; a < 3; ++a) {
    const int inset_hi = ghost_hi[a] > 0 ? ghost_hi[a] + 1 : 0;
    box.lo[a] = ghost_lo[a] > 0 ? ghost_lo[a] + 1 : 0;
    box.hi[a] = std::max(box.lo[a], d[a] - inset_hi);
  }
  return box;
}

std::vector<lbm::CellBox> LocalDomain::shell_boxes() const {
  const lbm::CellBox in = inner_box();
  lbm::CellBox rest{Int3{0, 0, 0}, local_dim()};
  if (in.empty()) return {rest};
  // Peel z, then y, then x: each axis's two slabs span what the earlier
  // axes left, and the rest narrows to the inner range on that axis.
  std::vector<lbm::CellBox> shell;
  for (int a = 2; a >= 0; --a) {
    lbm::CellBox low = rest, high = rest;
    low.hi[a] = in.lo[a];
    high.lo[a] = in.hi[a];
    if (!low.empty()) shell.push_back(low);
    if (!high.empty()) shell.push_back(high);
    rest.lo[a] = in.lo[a];
    rest.hi[a] = in.hi[a];
  }
  return shell;
}

namespace {

/// Tangent axes of a face's axis, in ascending order.
void tangent_axes(int axis, int* t1, int* t2) {
  *t1 = axis == 0 ? 1 : 0;
  *t2 = axis == 2 ? 1 : 2;
}

/// Local coordinate of the owned border layer at `face`.
int own_border_coord(const LocalDomain& ld, int face) {
  const int axis = face / 2;
  return (face % 2 == 0) ? ld.own_lo()[axis] : ld.own_hi()[axis] - 1;
}

/// Local coordinate of the ghost layer beyond `face`.
int ghost_coord(const LocalDomain& ld, int face) {
  const int axis = face / 2;
  return (face % 2 == 0) ? ld.own_lo()[axis] - 1 : ld.own_hi()[axis];
}

}  // namespace

i64 face_payload_size(const LocalDomain& ld, int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const Int3 s = ld.global.size();
  return i64(s[t1]) * s[t2] * 5;
}

i64 edge_payload_size(const LocalDomain& ld, Int3 off) {
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);
  return ld.global.size()[free_axis];
}

netsim::Payload pack_face(const lbm::Lattice& local, const LocalDomain& ld,
                          int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const auto dirs = outgoing_directions(static_cast<Face>(face));
  const int bc = own_border_coord(ld, face);

  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(face_payload_size(ld, face)));
  Int3 p;
  p[axis] = bc;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      const i64 cell = local.idx(p);
      for (int i : dirs) out.push_back(local.f(i, cell));
    }
  }
  return out;
}

void unpack_face(lbm::Lattice& local, const LocalDomain& ld, int face,
                 const netsim::Payload& data) {
  GC_CHECK(static_cast<i64>(data.size()) == face_payload_size(ld, face));
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  // The neighbor across `face` sent the distributions *entering* through
  // it — its outgoing directions across the opposite face.
  const int opposite = (face % 2 == 0) ? face + 1 : face - 1;
  const auto dirs = outgoing_directions(static_cast<Face>(opposite));
  const int gc_coord = ghost_coord(ld, face);

  std::size_t k = 0;
  Int3 p;
  p[axis] = gc_coord;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      const i64 cell = local.idx(p);
      for (int i : dirs) local.set_f(i, cell, data[k++]);
    }
  }
}

netsim::Payload pack_face_scalar(const lbm::ThermalField& field,
                                 const lbm::Lattice& local,
                                 const LocalDomain& ld, int face) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  const int bc = own_border_coord(ld, face);

  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(face_payload_size(ld, face) / 5));
  Int3 p;
  p[axis] = bc;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      out.push_back(field.t(local.idx(p)));
    }
  }
  return out;
}

void unpack_face_scalar(lbm::ThermalField& field, const lbm::Lattice& local,
                        const LocalDomain& ld, int face,
                        const netsim::Payload& data) {
  const int axis = face / 2;
  int t1, t2;
  tangent_axes(axis, &t1, &t2);
  GC_CHECK(static_cast<i64>(data.size()) == face_payload_size(ld, face) / 5);
  const int gc_coord = ghost_coord(ld, face);

  std::size_t k = 0;
  Int3 p;
  p[axis] = gc_coord;
  for (int c2 = ld.own_lo()[t2]; c2 < ld.own_hi()[t2]; ++c2) {
    p[t2] = c2;
    for (int c1 = ld.own_lo()[t1]; c1 < ld.own_hi()[t1]; ++c1) {
      p[t1] = c1;
      field.set_t(local.idx(p), data[k++]);
    }
  }
}

netsim::Payload pack_edge(const lbm::Lattice& local, const LocalDomain& ld,
                          Int3 off) {
  const int dir = lbm::direction_index(off);
  GC_CHECK_MSG(dir >= 0, "edge offset " << off << " is not a lattice link");
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);

  Int3 p;
  for (int a = 0; a < 3; ++a) {
    if (a == free_axis) continue;
    p[a] = off[a] > 0 ? ld.own_hi()[a] - 1 : ld.own_lo()[a];
  }
  netsim::Payload out;
  out.reserve(static_cast<std::size_t>(edge_payload_size(ld, off)));
  for (int c = ld.own_lo()[free_axis]; c < ld.own_hi()[free_axis]; ++c) {
    p[free_axis] = c;
    out.push_back(local.f(dir, local.idx(p)));
  }
  return out;
}

void unpack_edge(lbm::Lattice& local, const LocalDomain& ld, Int3 off,
                 const netsim::Payload& data) {
  GC_CHECK(static_cast<i64>(data.size()) == edge_payload_size(ld, off));
  // The sender sits at grid offset `off`; it sent its f_d with d = -off
  // (the direction pointing from it toward us). We store d at the ghost
  // corner line toward the sender.
  const int dir = lbm::direction_index(Int3{-off.x, -off.y, -off.z});
  GC_CHECK(dir >= 0);
  int free_axis = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) free_axis = a;
  }
  GC_CHECK(free_axis >= 0);

  Int3 p;
  for (int a = 0; a < 3; ++a) {
    if (a == free_axis) continue;
    p[a] = off[a] > 0 ? ld.own_hi()[a] : ld.own_lo()[a] - 1;
  }
  std::size_t k = 0;
  for (int c = ld.own_lo()[free_axis]; c < ld.own_hi()[free_axis]; ++c) {
    p[free_axis] = c;
    local.set_f(dir, local.idx(p), data[k++]);
  }
}

// --- the protocol ----------------------------------------------------

bool ExchangePlan::idle(int round) const {
  const auto at = [round](const auto& e) { return e.round == round; };
  const auto hop_at = [round](const ForwardHop& h) {
    return h.recv_round == round || h.send_round == round;
  };
  return std::none_of(faces.begin(), faces.end(), at) &&
         std::none_of(edge_sends.begin(), edge_sends.end(), at) &&
         std::none_of(edge_recvs.begin(), edge_recvs.end(), at) &&
         std::none_of(forwards.begin(), forwards.end(), hop_at);
}

namespace {

/// Plans `node`'s exchange; empty `routes` means a grid without
/// diagonal neighbors.
ExchangePlan build_plan(const netsim::CommSchedule& sched,
                        const std::vector<netsim::IndirectRoute>& routes,
                        int node) {
  const netsim::NodeGrid& grid = sched.grid;
  const Int3 me = grid.coords(node);
  ExchangePlan plan;
  plan.rounds = sched.num_steps();
  for (int k = 0; k < sched.num_steps(); ++k) {
    const auto& pairs = sched.steps[static_cast<std::size_t>(k)];
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
      const netsim::ExchangePair& p = pairs[pi];
      if (p.a != node && p.b != node) continue;
      const int peer = p.a == node ? p.b : p.a;
      const int face = netsim::face_toward(grid.coords(peer) - me);
      plan.faces.push_back(FaceSwap{face, peer, k, static_cast<int>(pi)});
    }
  }
  std::sort(plan.faces.begin(), plan.faces.end(),
            [](const FaceSwap& x, const FaceSwap& y) {
              return x.face < y.face;
            });

  for (const netsim::IndirectRoute& r : routes) {
    if (r.src == node) {
      plan.edge_sends.push_back(EdgeChunk{grid.coords(r.dst) - me, r.via,
                                          netsim::kHop1Base + r.dst,
                                          r.first_step});
    }
    if (r.via == node) {
      plan.forwards.push_back(ForwardHop{r.src, r.dst,
                                         netsim::kHop1Base + r.dst,
                                         netsim::kHop2Base + r.src,
                                         r.first_step, r.second_step});
    }
    if (r.dst == node) {
      plan.edge_recvs.push_back(EdgeChunk{grid.coords(r.src) - me, r.via,
                                          netsim::kHop2Base + r.src,
                                          r.second_step});
    }
  }
  return plan;
}

}  // namespace

// --- the host node ---------------------------------------------------

HostNode::HostNode(std::unique_ptr<lbm::Lattice> lattice, const LocalDomain& ld)
    : lat_(std::move(lattice)), ld_(ld) {
  lat_->cell_class();  // classified here, before the ranks run
}

Payload HostNode::pack_face(int face) {
  return core::pack_face(*lat_, ld_, face);
}

void HostNode::unpack_face(int face, const Payload& data) {
  core::unpack_face(*lat_, ld_, face, data);
}

Payload HostNode::pack_edge(Int3 off) {
  return core::pack_edge(*lat_, ld_, off);
}

void HostNode::unpack_edge(Int3 off, const Payload& data) {
  core::unpack_edge(*lat_, ld_, off, data);
}

void HostNode::stream() { lbm::stream(*lat_); }
void HostNode::stream_inner() { lbm::stream_region(*lat_, ld_.inner_box()); }

void HostNode::stream_outer() {
  for (const lbm::CellBox& box : ld_.shell_boxes()) {
    lbm::stream_region(*lat_, box);
  }
  lbm::finish_stream(*lat_);
}

// --- the simulated-GPU node ------------------------------------------

namespace {

/// Index of direction `dir` within outgoing_directions(face).
int dir_slot(Face face, int dir) {
  const auto dirs = outgoing_directions(face);
  for (int k = 0; k < 5; ++k) {
    if (dirs[static_cast<std::size_t>(k)] == dir) return k;
  }
  GC_CHECK_MSG(false, "direction " << dir << " does not leave face " << face);
  return -1;
}

/// The in-slice tangent axis of an x/y face.
int slice_tangent(int face) { return face / 2 == 0 ? 1 : 0; }

/// The texel rectangle of a box that spans every slice (z is never
/// decomposed across GPU nodes).
gpusim::Rect slice_rect(const lbm::CellBox& box, int depth) {
  GC_CHECK(box.lo.z == 0 && box.hi.z == depth);
  return gpusim::Rect{box.lo.x, box.lo.y, box.hi.x, box.hi.y};
}

}  // namespace

GpuNode::GpuNode(const lbm::Lattice& local, const LocalDomain& ld, Real tau,
                 const gpusim::GpuSpec& gpu, const gpusim::BusSpec& bus)
    : ld_(ld),
      dev_(std::make_unique<gpusim::GpuDevice>(gpu, bus)),
      gpu_(std::make_unique<gpulbm::GpuLbmSolver>(*dev_, local, tau)) {
  const int depth = ld.local_dim().z;
  const lbm::CellBox inner = ld.inner_box();
  if (!inner.empty()) inner_.push_back(slice_rect(inner, depth));
  for (const lbm::CellBox& box : ld.shell_boxes()) {
    shell_.push_back(slice_rect(box, depth));
  }
}

void GpuNode::collide() {
  gpu_->collide_pass();
  for (int face = 0; face < 4; ++face) {
    if (!ld_.has_neighbor(face)) continue;
    const int t = slice_tangent(face);
    borders_[static_cast<std::size_t>(face)] = gpu_->read_border_plane(
        static_cast<Face>(face), own_border_coord(ld_, face), ld_.own_lo()[t],
        ld_.own_hi()[t], 0, ld_.local_dim().z);
  }
}

Payload GpuNode::pack_face(int face) {
  return borders_.at(static_cast<std::size_t>(face));
}

void GpuNode::unpack_face(int face, const Payload& data) {
  const int t = slice_tangent(face);
  gpu_->write_ghost_plane(static_cast<Face>(face), ghost_coord(ld_, face),
                          ld_.own_lo()[t], ld_.own_hi()[t], 0,
                          ld_.local_dim().z, data);
}

Payload GpuNode::pack_edge(Int3 off) {
  // The corner line is part of the x-face border plane: cut the diagonal
  // direction's column out of it, one value per slice.
  const int fx = off.x > 0 ? lbm::FACE_XMAX : lbm::FACE_XMIN;
  const Payload& plane = borders_[static_cast<std::size_t>(fx)];
  const int bw = ld_.own_hi().y - ld_.own_lo().y;
  const int t = off.y > 0 ? bw - 1 : 0;
  const int k = dir_slot(static_cast<Face>(fx), lbm::direction_index(off));
  const int dz = ld_.local_dim().z;
  GC_CHECK(static_cast<i64>(plane.size()) == i64(dz) * bw * 5);
  Payload chunk;
  chunk.reserve(static_cast<std::size_t>(dz));
  for (int z = 0; z < dz; ++z) {
    chunk.push_back(plane[(static_cast<std::size_t>(z) * bw + t) * 5 +
                          static_cast<std::size_t>(k)]);
  }
  return chunk;
}

void GpuNode::unpack_edge(Int3 off, const Payload& data) {
  const int gx = off.x > 0 ? ld_.own_hi().x : ld_.own_lo().x - 1;
  const int gy = off.y > 0 ? ld_.own_hi().y : ld_.own_lo().y - 1;
  const int dir = lbm::direction_index(Int3{-off.x, -off.y, 0});
  gpu_->write_ghost_line_z(gx, gy, dir, 0, ld_.local_dim().z, data);
}

void GpuNode::stream() { gpu_->stream_pass(); }
void GpuNode::stream_inner() { gpu_->stream_rects(inner_); }
void GpuNode::stream_outer() { gpu_->stream_rects(shell_); }

// --- the shared driver state and the one exchange routine ------------

/// Span names of one ordering's exchange phases; null records no span.
struct ClusterExchange::PhaseSpans {
  const char* pack;
  const char* wait;
  const char* unpack;
  const char* cat;
};

namespace {

Decomposition3 make_decomposition(const lbm::Lattice& global,
                                  const netsim::NodeGrid& grid,
                                  bool fluid_balanced) {
  return fluid_balanced ? Decomposition3(global.dim(), grid, global.flags())
                        : Decomposition3(global.dim(), grid);
}

}  // namespace

ClusterExchange::ClusterExchange(const lbm::Lattice& global,
                                 const netsim::NodeGrid& grid,
                                 bool fluid_balanced)
    : decomp_(make_decomposition(global, grid, fluid_balanced)),
      sched_(netsim::CommSchedule::pairwise(grid)),
      world_(grid.num_nodes()) {
  GC_CHECK_MSG(global.curved_links().empty(),
               "the distributed solver supports flag-based boundaries only");
  for (int a = 0; a < 3; ++a) {
    if (grid.dims[a] > 1) {
      GC_CHECK_MSG(
          global.face_bc(static_cast<Face>(2 * a)) != lbm::FaceBc::Periodic &&
              global.face_bc(static_cast<Face>(2 * a + 1)) !=
                  lbm::FaceBc::Periodic,
          "axis " << a << " is decomposed across nodes and cannot be periodic");
    }
  }
  const std::vector<netsim::IndirectRoute> routes =
      netsim::plan_indirect_routes(sched_);
  const int n = decomp_.num_nodes();
  for (int node = 0; node < n; ++node) {
    domains_.push_back(LocalDomain::make(decomp_, node));
    plans_.push_back(build_plan(sched_, routes, node));
    forward_store_.emplace_back(plans_.back().forwards.size());
  }
  hidden_ms_.assign(static_cast<std::size_t>(n), 0.0);
}

double ClusterExchange::hidden_ms(int node) const {
  GC_CHECK_MSG(node >= 0 && node < num_nodes(), "invalid node " << node);
  return hidden_ms_[static_cast<std::size_t>(node)];
}

std::unique_ptr<lbm::Lattice> ClusterExchange::scatter(
    const lbm::Lattice& global, int node, lbm::StorageMode mode) const {
  const LocalDomain& ld = domain(node);
  auto lat = std::make_unique<lbm::Lattice>(ld.local_dim(), mode);

  // Face boundary conditions: global faces keep the global BC; faces
  // toward neighbors are covered by the ghost layer and never consulted
  // by owned-cell pulls (Outflow keeps ghost streaming cheap and local).
  for (int face = 0; face < 6; ++face) {
    lat->set_face_bc(static_cast<Face>(face),
                     ld.has_neighbor(face)
                         ? lbm::FaceBc::Outflow
                         : global.face_bc(static_cast<Face>(face)));
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

  // Copy flags, then distributions, for every local cell (ghosts
  // included: ghost flags persist; ghost f is refreshed by each step's
  // exchange).
  const lbm::CellBox all{Int3{0, 0, 0}, ld.local_dim()};
  const Int3 shift = ld.global.lo - ld.ghost_lo;
  all.for_each(ld.local_dim(), [&](Int3 p) {
    GC_CHECK(global.in_bounds(p + shift));
    lat->set_flag(p, global.flag(p + shift));
  });
  all.for_each(ld.local_dim(), [&](Int3 p) {
    const i64 lc = lat->idx(p);
    const i64 gcell = global.idx(p + shift);
    for (int i = 0; i < lbm::Q; ++i) lat->set_f(i, lc, global.f(i, gcell));
  });
  return lat;
}

void ClusterExchange::gather(const lbm::Lattice& local, int node,
                             lbm::Lattice& out) const {
  GC_CHECK(out.dim() == decomp_.lattice_dim());
  const LocalDomain& ld = domain(node);
  const SubDomain& b = ld.global;
  for (int z = b.lo.z; z < b.hi.z; ++z) {
    for (int y = b.lo.y; y < b.hi.y; ++y) {
      for (int x = b.lo.x; x < b.hi.x; ++x) {
        const i64 lc = local.idx(ld.to_local(Int3{x, y, z}));
        const i64 gcell = out.idx(x, y, z);
        for (int i = 0; i < lbm::Q; ++i) {
          out.set_f(i, gcell, local.f(i, lc));
        }
      }
    }
  }
}

void ClusterExchange::exchange_and_stream(Comm& comm, ExchangeNode& node,
                                          bool overlap,
                                          obs::TraceRecorder* rec) {
  const int rank = comm.rank();
  const ExchangePlan& p = plan(rank);
  if (!overlap) {
    // The paper's synchronous ordering: the schedule's rounds one after
    // another, then a full-lattice stream.
    static constexpr PhaseSpans kRound{"pack", nullptr, "unpack", "net"};
    for (int k = 0; k < p.rounds; ++k) {
      obs::ScopedSpan span(rec, "exchange", rank, "net");
      if (!p.idle(k)) exchange(comm, node, k, k + 1, kRound, rec, nullptr);
    }
    obs::ScopedSpan span(rec, "stream", rank, "lbm");
    node.stream();
    return;
  }
  // §4.4: every round in flight at once while the inner cells stream.
  static constexpr PhaseSpans kOverlap{"overlap.pack", "overlap.wait",
                                       "overlap.unpack", "overlap"};
  hidden_ms_[static_cast<std::size_t>(rank)] +=
      exchange(comm, node, 0, p.rounds, kOverlap, rec, [&] {
        obs::ScopedSpan span(rec, "overlap.inner", rank, "overlap");
        node.stream_inner();
      });
  obs::ScopedSpan span(rec, "overlap.outer", rank, "overlap");
  node.stream_outer();
}

double ClusterExchange::exchange(Comm& comm, ExchangeNode& node, int lo,
                                 int hi, const PhaseSpans& spans,
                                 obs::TraceRecorder* rec,
                                 const std::function<void()>& window) {
  const int rank = comm.rank();
  const ExchangePlan& p = plan(rank);
  std::vector<Payload>& store = forward_store_[static_cast<std::size_t>(rank)];
  const auto in = [lo, hi](int round) { return round >= lo && round < hi; };

  // One request slot per plan entry; entries outside [lo, hi) stay
  // invalid, which wait_all skips.
  std::vector<netsim::Request> face_reqs(p.faces.size());
  std::vector<netsim::Request> hop_reqs(p.forwards.size());
  std::vector<netsim::Request> edge_reqs(p.edge_recvs.size());
  {
    obs::ScopedSpan span(rec, spans.pack, rank, spans.cat);
    for (std::size_t i = 0; i < p.faces.size(); ++i) {
      const FaceSwap& f = p.faces[i];
      if (!in(f.round)) continue;
      comm.isend(f.peer, netsim::kFace, node.pack_face(f.face));
      face_reqs[i] = comm.irecv(f.peer, netsim::kFace);
    }
    for (const EdgeChunk& e : p.edge_sends) {
      if (in(e.round)) comm.isend(e.peer, e.tag, node.pack_edge(e.off));
    }
    for (std::size_t i = 0; i < p.forwards.size(); ++i) {
      if (in(p.forwards[i].recv_round)) {
        hop_reqs[i] = comm.irecv(p.forwards[i].src, p.forwards[i].recv_tag);
      }
    }
    for (std::size_t i = 0; i < p.edge_recvs.size(); ++i) {
      if (in(p.edge_recvs[i].round)) {
        edge_reqs[i] = comm.irecv(p.edge_recvs[i].peer, p.edge_recvs[i].tag);
      }
    }
  }

  const double t_post_us = world_.now_us();
  if (window) window();
  const double t_window_us = world_.now_us();

  double t_arrival_us = t_post_us;
  {
    obs::ScopedSpan span(spans.wait ? rec : nullptr, spans.wait, rank,
                         spans.cat);
    std::vector<netsim::Request> first = face_reqs;
    first.insert(first.end(), hop_reqs.begin(), hop_reqs.end());
    comm.wait_all(first);
    // Second hops: forward the chunks this rank carries for others — the
    // ones that just arrived and the ones parked since an earlier round —
    // before waiting on its own.
    for (std::size_t i = 0; i < p.forwards.size(); ++i) {
      const ForwardHop& h = p.forwards[i];
      if (in(h.recv_round)) store[i] = comm.wait(hop_reqs[i]);
      if (!in(h.send_round)) continue;
      GC_CHECK_MSG(!store[i].empty(),
                   "missing forwarded chunk " << h.src << "->" << h.dst);
      comm.send(h.dst, h.send_tag, std::exchange(store[i], {}));
    }
    comm.wait_all(edge_reqs);
    for (const auto* reqs : {&face_reqs, &hop_reqs, &edge_reqs}) {
      for (const netsim::Request& r : *reqs) {
        t_arrival_us = std::max(t_arrival_us, r.complete_time_us());
      }
    }
  }

  {
    obs::ScopedSpan span(rec, spans.unpack, rank, spans.cat);
    for (std::size_t i = 0; i < p.faces.size(); ++i) {
      if (face_reqs[i].valid()) {
        node.unpack_face(p.faces[i].face, comm.wait(face_reqs[i]));
      }
    }
    for (std::size_t i = 0; i < p.edge_recvs.size(); ++i) {
      if (edge_reqs[i].valid()) {
        node.unpack_edge(p.edge_recvs[i].off, comm.wait(edge_reqs[i]));
      }
    }
  }
  // The slice of the comm-in-flight interval that fell inside the window
  // (measured, not modeled).
  return std::max(0.0, std::min(t_arrival_us, t_window_us) - t_post_us) *
         1e-3;
}

void ClusterExchange::reset() {
  world_.reset();
  for (auto& store : forward_store_) {
    for (Payload& chunk : store) chunk.clear();
  }
}

}  // namespace gc::core
