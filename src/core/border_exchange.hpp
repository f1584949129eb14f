// The border exchange of Section 4.3, written once for both cluster
// drivers. A node sends the 5 outgoing distributions of each border cell
// to the axial neighbor behind that face (5N^2 values for an N^3 block),
// and a single distribution per cell of each border edge line to the
// diagonal (second-nearest) neighbor (N values) — the latter routed
// indirectly in two axial hops.
//
// This module owns the payload formats (pack/unpack below), the protocol
// — which payload goes to which peer, on which tag, in which schedule
// round (ExchangePlan, built once per rank) — and the one routine that
// runs it (ClusterExchange) over either kind of node (ExchangeNode: a
// host lattice or a simulated GPU), round by round (the synchronous
// ordering) or around the inner-cell window (the §4.4 overlap).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "core/decomposition.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"
#include "lbm/thermal.hpp"
#include "netsim/mpilite.hpp"
#include "obs/trace.hpp"

namespace gc::core {

/// Geometry of one node's local lattice: the owned global block plus a
/// one-cell ghost ("proxy point", Figure 14) layer on every side that has
/// a neighbor.
struct LocalDomain {
  SubDomain global;
  Int3 ghost_lo{};  ///< 1 where a lower neighbor exists, else 0
  Int3 ghost_hi{};

  Int3 local_dim() const { return global.size() + ghost_lo + ghost_hi; }
  /// Local coordinates of the owned region (half-open box).
  Int3 own_lo() const { return ghost_lo; }
  Int3 own_hi() const { return ghost_lo + global.size(); }
  /// The overlap's inner region (§4.4), in local coordinates: the cells
  /// that read no ghost, inset ghost + 1 cells (the ghost layer and the
  /// shell that pulls from it) on every side that has a neighbor. Empty
  /// (lo == hi) when the block is too thin to have one. Both node kinds
  /// stream it while border messages are in flight.
  lbm::CellBox inner_box() const;
  /// The local cells outside inner_box(), as at most six disjoint
  /// non-empty boxes: the low and high z slabs, then the y slabs between
  /// them, then the x slabs between those (one box of every local cell
  /// when the inner box is empty). Streamed after the ghost write-back.
  std::vector<lbm::CellBox> shell_boxes() const;
  /// Global -> local coordinate shift.
  Int3 to_local(Int3 g) const { return g - global.lo + ghost_lo; }
  /// True when an axial neighbor sits behind `face` (0..5 as lbm::Face).
  bool has_neighbor(int face) const {
    return (face % 2 == 0 ? ghost_lo : ghost_hi)[face / 2] == 1;
  }

  static LocalDomain make(const Decomposition3& decomp, int node);
};

/// Packs the 5 outgoing post-collision distributions of every owned border
/// cell at `face` (ordering: outer tangent axis, inner tangent axis, then
/// the 5 directions of outgoing_directions(face)).
netsim::Payload pack_face(const lbm::Lattice& local, const LocalDomain& ld,
                          int face);

/// Writes a payload received from the axial neighbor across `face` into
/// the ghost layer beyond that face.
void unpack_face(lbm::Lattice& local, const LocalDomain& ld, int face,
                 const netsim::Payload& data);

/// Packs the single diagonal distribution of the border edge line facing
/// the neighbor at grid offset `off` (exactly two nonzero components).
netsim::Payload pack_edge(const lbm::Lattice& local, const LocalDomain& ld,
                          Int3 off);

/// Writes an edge payload received from the diagonal neighbor at grid
/// offset `off` into the ghost corner line toward that neighbor.
void unpack_edge(lbm::Lattice& local, const LocalDomain& ld, Int3 off,
                 const netsim::Payload& data);

/// Expected payload sizes (cells, not bytes) for validation.
i64 face_payload_size(const LocalDomain& ld, int face);
i64 edge_payload_size(const LocalDomain& ld, Int3 off);

/// Scalar-field (temperature) border exchange for the hybrid thermal
/// model: one value per owned border cell of `face` / per ghost cell
/// beyond it. The 7-point FD stencil needs axial faces only.
netsim::Payload pack_face_scalar(const lbm::ThermalField& field,
                                 const lbm::Lattice& local,
                                 const LocalDomain& ld, int face);
void unpack_face_scalar(lbm::ThermalField& field, const lbm::Lattice& local,
                        const LocalDomain& ld, int face,
                        const netsim::Payload& data);

/// One axial face swap: the rank sends its border at `face` to `peer` and
/// receives the peer's into the ghost layer beyond it, on netsim::kFace,
/// in schedule round `round` as pair `pair` of that round.
struct FaceSwap {
  int face;
  int peer;
  int round;
  int pair;
};

/// One diagonal chunk the rank sends or receives: the edge line toward
/// the diagonal neighbor at grid offset `off`, travelling to or from
/// `peer` (the via node of its two-hop route) on `tag` in `round`.
struct EdgeChunk {
  Int3 off;
  int peer;
  int tag;
  int round;
};

/// One first-hop chunk the rank carries for another: received from `src`
/// on `recv_tag` in `recv_round`, sent on to `dst` on `send_tag` in
/// `send_round`.
struct ForwardHop {
  int src;
  int dst;
  int recv_tag;
  int send_tag;
  int recv_round;
  int send_round;
};

/// Everything one rank sends and receives per step. Faces are in
/// ascending face order; the chunks follow netsim::plan_indirect_routes.
struct ExchangePlan {
  /// The schedule's rounds.
  int rounds = 0;
  std::vector<FaceSwap> faces;
  std::vector<EdgeChunk> edge_sends;
  std::vector<EdgeChunk> edge_recvs;
  std::vector<ForwardHop> forwards;

  /// True when the rank neither sends nor receives in `round`.
  bool idle(int round) const;
};

/// One cluster node as the exchange sees it: border payloads in the
/// formats above, ghost write-back, and the three streaming passes
/// (whole lattice, or LocalDomain::inner_box, the cells that read no
/// ghost, and then LocalDomain::shell_boxes, the shell around it).
class ExchangeNode {
 public:
  ExchangeNode() = default;
  virtual ~ExchangeNode() = default;
  ExchangeNode(const ExchangeNode&) = delete;
  ExchangeNode& operator=(const ExchangeNode&) = delete;

  virtual netsim::Payload pack_face(int face) = 0;
  virtual void unpack_face(int face, const netsim::Payload& data) = 0;
  virtual netsim::Payload pack_edge(Int3 off) = 0;
  virtual void unpack_edge(Int3 off, const netsim::Payload& data) = 0;
  virtual void stream() = 0;
  /// stream_inner() + stream_outer() is bit-identical to stream().
  virtual void stream_inner() = 0;
  virtual void stream_outer() = 0;
};

/// A node whose block lives in a host lbm::Lattice (any storage mode).
class HostNode final : public ExchangeNode {
 public:
  /// Takes the node's finished local lattice and classifies its cells
  /// once: node flags never change afterwards. stream_inner() streams the
  /// inner box (lbm::stream_region); stream_outer() streams the shell
  /// boxes and finishes the step (lbm::finish_stream).
  HostNode(std::unique_ptr<lbm::Lattice> lattice, const LocalDomain& ld);

  lbm::Lattice& lattice() { return *lat_; }
  const lbm::Lattice& lattice() const { return *lat_; }

  netsim::Payload pack_face(int face) override;
  void unpack_face(int face, const netsim::Payload& data) override;
  netsim::Payload pack_edge(Int3 off) override;
  void unpack_edge(Int3 off, const netsim::Payload& data) override;
  void stream() override;
  void stream_inner() override;
  void stream_outer() override;

 private:
  std::unique_ptr<lbm::Lattice> lat_;
  const LocalDomain& ld_;
};

/// A node whose block lives on its own simulated GPU (2D decompositions
/// only: the border planes are x/y faces and the diagonals z lines).
class GpuNode final : public ExchangeNode {
 public:
  /// Uploads `local` to a fresh simulated device.
  GpuNode(const lbm::Lattice& local, const LocalDomain& ld, Real tau,
          const gpusim::GpuSpec& gpu, const gpusim::BusSpec& bus);

  /// The collision passes, then the single gather and read-back of every
  /// border plane toward a neighbor (§4.3). pack_face and pack_edge cut
  /// their payloads from these planes without touching the device again.
  void collide();

  const gpusim::GpuDevice& device() const { return *dev_; }
  /// Device state as a host lattice (validation path, not charged).
  void copy_state_to_host(lbm::Lattice& out) const {
    gpu_->copy_state_to_host(out);
  }

  netsim::Payload pack_face(int face) override;
  void unpack_face(int face, const netsim::Payload& data) override;
  netsim::Payload pack_edge(Int3 off) override;
  void unpack_edge(Int3 off, const netsim::Payload& data) override;
  void stream() override;
  void stream_inner() override;
  void stream_outer() override;

 private:
  const LocalDomain& ld_;
  std::unique_ptr<gpusim::GpuDevice> dev_;
  std::unique_ptr<gpulbm::GpuLbmSolver> gpu_;
  /// LocalDomain::inner_box (none when it is empty) and shell_boxes as
  /// texel rectangles of every slice: z is undecomposed.
  std::vector<gpusim::Rect> inner_;
  std::vector<gpusim::Rect> shell_;
  /// This step's read-back border planes, by face.
  std::array<netsim::Payload, 4> borders_;
};

/// The state both cluster drivers share — decomposition, schedule, the
/// per-rank plans and domains, the MpiLite world, the forwarded chunks
/// awaiting their second hop and the hidden network time — and the one
/// exchange routine that runs over it.
class ClusterExchange {
 public:
  /// Decomposes `global` over `grid` (fluid-balanced cuts when asked) and
  /// plans every rank's exchange. Decomposed axes must not be periodic,
  /// and the global lattice must not use curved links.
  ClusterExchange(const lbm::Lattice& global, const netsim::NodeGrid& grid,
                  bool fluid_balanced);

  const Decomposition3& decomposition() const { return decomp_; }
  const netsim::CommSchedule& schedule() const { return sched_; }
  int num_nodes() const { return decomp_.num_nodes(); }
  const LocalDomain& domain(int node) const {
    return domains_[static_cast<std::size_t>(node)];
  }
  const ExchangePlan& plan(int node) const {
    return plans_[static_cast<std::size_t>(node)];
  }
  netsim::MpiLite& world() { return world_; }
  const netsim::MpiLite& world() const { return world_; }

  /// Cumulative network time node `node` hid under its inner-cell window
  /// (overlapped ordering only; 0 otherwise). Measured from message
  /// enqueue stamps, not modeled.
  double hidden_ms(int node) const;

  /// Builds node `node`'s local lattice from `global`, in storage mode
  /// `mode`: face BCs (Outflow toward neighbors), inlet and inlet profile,
  /// then the flags of every local cell, ghosts included, then their
  /// distributions (so a Sparse lattice builds its compact map once).
  std::unique_ptr<lbm::Lattice> scatter(const lbm::Lattice& global, int node,
                                        lbm::StorageMode mode) const;

  /// Copies the distributions of node `node`'s owned region of `local`
  /// into the global lattice `out`.
  void gather(const lbm::Lattice& local, int node, lbm::Lattice& out) const;

  /// One step's border exchange and streaming on the calling rank, after
  /// its collision. Synchronous: one exchange per plan round, then
  /// stream(). Overlapped (§4.4): every round posted at once around the
  /// stream_inner() window, then stream_outer(); adds the hidden network
  /// time. Both put the same messages on the same channels. Spans go to
  /// `rec` (tid = rank) when set.
  void exchange_and_stream(netsim::Comm& comm, ExchangeNode& node,
                           bool overlap, obs::TraceRecorder* rec);

  /// Clears the world and any half-forwarded chunks after a failed run.
  void reset();

 private:
  struct PhaseSpans;
  /// Posts the sends and receives of rounds [lo, hi), runs `window` (if
  /// any) while they are in flight, forwards first-hop chunks, waits for
  /// the rest and unpacks. Returns the network time hidden under the
  /// window, in ms.
  double exchange(netsim::Comm& comm, ExchangeNode& node, int lo, int hi,
                  const PhaseSpans& spans, obs::TraceRecorder* rec,
                  const std::function<void()>& window);

  Decomposition3 decomp_;
  netsim::CommSchedule sched_;
  std::vector<LocalDomain> domains_;
  std::vector<ExchangePlan> plans_;
  netsim::MpiLite world_;
  /// Per rank, one slot per plan forward: the first-hop chunk awaiting
  /// its second hop (empty when none is parked).
  std::vector<std::vector<netsim::Payload>> forward_store_;
  std::vector<double> hidden_ms_;
};

}  // namespace gc::core
