// The LBM lattice container: a structured 3D grid of D3Q19 distribution
// values stored as 19 planes (structure-of-arrays), in one of two storage
// modes. The simulated GPU keeps the texture stacks of Section 4.2 itself
// (src/gpulbm); the host stores what moves the fewest bytes per update.
//
//   AA — the in-place AA-pattern (Bailey et al.), the dense default: ONE
//     buffer. The logical field f_i(x) is related to the stored values by
//     a per-phase affine bijection; bulk streaming is a zero-copy
//     reinterpretation (parity flip) and the collision pass absorbs the
//     slot swap by writing each cell's post-collision values into the
//     slots the next flip expects. The phase cycles through four storage
//     mappings (slot of logical f_i at cell x):
//
//       phase 0  even, post-stream   (i, x)              "natural"
//       phase 1  even, post-collide  (OPP[i], x)
//       phase 2  odd,  post-stream   (OPP[i], wrap(x - c_i))
//       phase 3  odd,  post-collide  (i, wrap(x + c_i))
//
//     collide advances 0->1 / 2->3 (in place: each cell's read-slot set
//     equals its write-slot set), swap_buffers() flips 1->2 / 3->0 (pure
//     parity flip: for every link whose pull is a plain copy, the
//     post-flip logical value IS the streamed value). Only the rule
//     links of the slow cells (CellClass::RuleLinks: a non-fluid or
//     out-of-domain source, or the reflected direction of a curved link)
//     need explicit fixups, which the stream region passes collect into
//     one scratch before the flip and finish_stream writes after it; the
//     flip streams the slow cells' other links with the bulk. A stream
//     with no collide before it first advances the lattice with the
//     identity operator, so it streams at either parity.
//     `wrap` is a per-axis periodic index wrap — an internal address
//     bijection, independent of the face boundary conditions. Across a
//     periodic face it is also the periodic pull, so the flip streams
//     the cells on periodic faces with the rest of the bulk.
//
//   Sparse — indirect fluid-index addressing (Tomczak & Szafran's
//     sparse-geometry GPU LBM), for solid-heavy scenes: two compact
//     buffers hold only the non-solid cells, plus a dense->compact index
//     map. Because the compact cell list is built in ascending dense
//     order, consecutive dense fluid cells stay consecutive compact cells,
//     so the CellClass bulk spans remain contiguous copies in compact
//     storage and the kernels keep their branch-free shape. Solid cells
//     have no storage at all. The layout is rebuilt lazily after flag
//     changes, remapping the surviving cells' values in place.
//
// Solid cells, in both modes: the accessors read a Solid-flagged cell as
// 0 and drop writes to it, and no pass reads, writes or advances one.
// Nothing needs their storage: bounce-back at an obstacle is a rule link
// that reads the fluid cell itself. AA keeps dense storage there, which
// holds whatever it last held.
//
// All observation (f()/set_f, pack/unpack, gather) goes through the
// phase-transparent accessors, and checkpoints through the natural-order
// plane access (read_plane/write_plane), so the two modes are bit-exact.
// The storage itself is private: raw plane pointers reach only the
// addressing policies of cell_pass.hpp, which are friends.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "lbm/cell_class.hpp"
#include "lbm/model.hpp"
#include "util/common.hpp"
#include "util/vec3.hpp"

namespace gc::lbm {

namespace detail {
struct CompactAddr;
struct AaAddr;
}  // namespace detail

/// Per-cell classification.
enum class CellType : u8 {
  Fluid = 0,    ///< normal LBM dynamics
  Solid = 1,    ///< half-way bounce-back obstacle (buildings, walls)
  Inlet = 2,    ///< imposed equilibrium at prescribed density/velocity
  Outflow = 3,  ///< zero-gradient outflow
};

/// What lies beyond each domain face (used when a pull source is outside).
enum class FaceBc : u8 {
  Periodic = 0,  ///< wrap around
  Wall = 1,      ///< half-way bounce-back
  Inlet = 2,     ///< equilibrium inflow at (inlet_density, inlet_velocity)
  Outflow = 3,   ///< zero gradient
  FreeSlip = 4,  ///< specular reflection (slip wall, e.g. domain top)
};

/// Face indices for Lattice::set_face_bc.
enum Face : int {
  FACE_XMIN = 0, FACE_XMAX = 1,
  FACE_YMIN = 2, FACE_YMAX = 3,
  FACE_ZMIN = 4, FACE_ZMAX = 5,
};

/// A lattice link cut by a curved boundary surface at fraction q in (0,1]
/// of the link length, measured from the fluid cell (Section 4.1: boundary
/// surfaces represented by link intersections, Mei/Bouzidi interpolation).
struct CurvedLink {
  i64 cell;  ///< fluid cell index
  int dir;   ///< direction pointing from the fluid cell toward the wall
  Real q;    ///< intersection fraction along the link, in (0, 1]
};

/// How the distribution planes are stored (see the file header). The
/// values are stored in checkpoint headers and flow-cache keys, so they
/// keep their numbers.
enum class StorageMode : u8 {
  AA = 1,      ///< one buffer, in-place AA-pattern phase machine
  Sparse = 2,  ///< two compact buffers over non-solid cells only
};

/// Human-readable storage-mode name (error messages, logs).
inline const char* storage_mode_name(StorageMode m) {
  switch (m) {
    case StorageMode::AA: return "AA";
    case StorageMode::Sparse: return "Sparse";
  }
  return "?";
}

/// Thrown when distribution state is copied wholesale between lattices of
/// different storage modes — the layouts are not interchangeable; convert
/// with Lattice::convert_storage first.
class StorageMismatchError : public Error {
 public:
  explicit StorageMismatchError(const std::string& what) : Error(what) {}
};

class Lattice {
 public:
  explicit Lattice(Int3 dim, StorageMode mode = StorageMode::AA);

  Int3 dim() const { return dim_; }
  i64 num_cells() const { return n_; }

  /// Linear index of (x, y, z); x is the fastest-varying coordinate.
  i64 idx(int x, int y, int z) const {
    return x + i64(dim_.x) * (y + i64(dim_.y) * z);
  }
  i64 idx(Int3 p) const { return idx(p.x, p.y, p.z); }
  /// Inverse of idx. Inline, so callers keep the three coordinates in
  /// registers rather than passing the struct through memory.
  Int3 coords(i64 cell) const {
    const i64 rest = cell / dim_.x;
    return {static_cast<int>(cell % dim_.x), static_cast<int>(rest % dim_.y),
            static_cast<int>(rest / dim_.y)};
  }

  bool in_bounds(Int3 p) const {
    return p.x >= 0 && p.x < dim_.x && p.y >= 0 && p.y < dim_.y &&
           p.z >= 0 && p.z < dim_.z;
  }

  // --- storage mode and AA phase machine ---
  StorageMode storage_mode() const { return mode_; }
  /// AA phase in [0, 4): bit 0 = collided, bit 1 = odd parity. Always 0
  /// in sparse mode.
  int aa_phase() const { return phase_; }
  bool aa_collided() const { return (phase_ & 1) != 0; }
  /// True when slot (i, cell) is simply plane(i) + cell: AA at phase 0
  /// (never sparse: compact storage has no dense planes).
  bool plane_layout_natural() const {
    return mode_ == StorageMode::AA && phase_ == 0;
  }

  /// Marks the AA lattice collided (phase 0->1 or 2->3) after an
  /// advancing collision pass has rewritten every cell into the slots of
  /// the post-collide mapping (AaAddr in cell_pass.hpp).
  void aa_mark_collided() {
    GC_CHECK_MSG(mode_ == StorageMode::AA && !aa_collided(),
                 "aa_mark_collided requires an un-collided AA lattice");
    phase_ |= 1;
  }

  /// Rebuilds the lattice in the given storage mode, preserving the
  /// logical distribution field, flags and boundary state bit-exactly.
  void convert_storage(StorageMode mode);

  // --- distribution access (phase- and layout-transparent) ---
  // A Solid-flagged cell reads 0 and drops writes, in every storage mode
  // (the file header).
  Real f(int i, i64 cell) const {
    return flag(cell) == CellType::Solid ? Real(0) : buf_[cur_][slot(i, cell)];
  }
  /// f(i, idx(p)) for a caller that already has the coordinates, which
  /// the AA mapping needs: it skips the division that recovers them.
  Real f(int i, Int3 p) const {
    if (mode_ == StorageMode::Sparse) return f(i, idx(p));
    return flag(p) == CellType::Solid ? Real(0)
                                      : buf_[cur_][slot(i, p, phase_)];
  }
  void set_f(int i, i64 cell, Real v) {
    if (flag(cell) != CellType::Solid) buf_[cur_][slot(i, cell)] = v;
  }
  /// set_f(i, idx(p), v), for a caller that already has the coordinates.
  void set_f(int i, Int3 p, Real v) {
    if (mode_ == StorageMode::Sparse) return set_f(i, idx(p), v);
    if (flag(p) != CellType::Solid) buf_[cur_][slot(i, p, phase_)] = v;
  }

  /// Writes all 19 logical values of one cell, via the current mapping.
  void scatter_cell(i64 cell, const Real* in) {
    if (flag(cell) == CellType::Solid) return;
    if (mode_ == StorageMode::Sparse) {
      const i64 m = sparse_index(cell);
      for (int i = 0; i < Q; ++i) buf_[cur_][sparse_slot(i, m)] = in[i];
      return;
    }
    const Int3 p = coords(cell);
    for (int i = 0; i < Q; ++i) buf_[cur_][slot(i, p, phase_)] = in[i];
  }
  /// Passes fn plane i in cell order, as a std::span<const Real> of
  /// f_i(0) .. f_i(n - 1): a copy gathered through f, so solid cells
  /// read 0 whatever their storage holds. The one natural-order export
  /// of the field: checkpoints write it.
  template <class Fn>
  void read_plane(int i, Fn&& fn) const {
    std::vector<Real> gathered(static_cast<std::size_t>(n_));
    for (i64 c = 0; c < n_; ++c) {
      gathered[static_cast<std::size_t>(c)] = f(i, c);
    }
    fn(std::span<const Real>(gathered));
  }
  /// Passes fn plane i as a std::span<Real>, to fill with f_i(0) ..
  /// f_i(n - 1): the one natural-order import of the field, which
  /// checkpoint loads use. AA in the natural layout (phase 0, as built)
  /// hands out its storage; Sparse a scratch plane, which it packs into
  /// the compact plane after fn returns, dropping the solid cells.
  template <class Fn>
  void write_plane(int i, Fn&& fn) {
    if (mode_ == StorageMode::AA) {
      fn(std::span<Real>(plane_ptr(i), static_cast<std::size_t>(n_)));
      return;
    }
    std::vector<Real> natural(static_cast<std::size_t>(n_));
    fn(std::span<Real>(natural));
    sparse_pack_plane(i, natural);
  }

  // --- sparse compact layout (Sparse mode only) ---
  // Compact storage is addressed by compact ids from sparse_index(), never
  // by dense cell indices; only CompactAddr (cell_pass.hpp) holds pointers
  // into it.

  /// Number of cells with compact storage (the non-solid cells).
  i64 sparse_active_cells() const {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return sparse_n_;
  }
  /// Compact id of a dense cell, or -1 for a pruned (solid) cell. Dense
  /// order is preserved: consecutive active dense cells have consecutive
  /// compact ids, so CellClass spans stay contiguous in compact storage.
  i64 sparse_index(i64 cell) const {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return sparse_map_[static_cast<std::size_t>(cell)];
  }
  /// Dense cell index of each compact id, ascending.
  const std::vector<i64>& sparse_cell_list() const {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return sparse_cells_;
  }

  /// Sparse: swap current and back buffers (after a streaming pass). AA:
  /// flip parity (phase 1->2 or 3->0) — the zero-copy bulk stream;
  /// requires a collided lattice.
  void swap_buffers() {
    if (mode_ == StorageMode::Sparse) {
      cur_ = 1 - cur_;
      return;
    }
    GC_CHECK_MSG(aa_collided(), "AA parity flip requires a collided lattice");
    phase_ = (phase_ + 1) & 3;
  }

  /// Copies the distribution state from `src` (same dimensions and same
  /// storage mode required; mismatched modes throw StorageMismatchError):
  /// adopts its current buffer and AA phase. The one way to restore
  /// distribution state wholesale.
  void copy_distributions_from(const Lattice& src);

  /// Reusable scratch for the AA boundary fixups: one value per rule link
  /// (CellClass::rule_links, at each slow cell's RuleLinks::at), filled by
  /// the stream region passes before the flip and written by the finish
  /// after it. Kept on the lattice so the hot loop does not reallocate
  /// every step; released when the lattice converts to another mode.
  std::vector<Real>& aa_fix_scratch() { return aa_fix_; }

  /// Per curved link, in curved_links() order: f*_dir of its cell before
  /// the last stream, the value heading into the wall. The AA stream
  /// records it beside the link's Bouzidi fixup (boundary.hpp), because
  /// the fixup replaces the reflected value that plain bounce-back would
  /// leave equal to it; momentum_exchange_force reads it. Released with
  /// the fixup scratch.
  const std::vector<Real>& curved_link_out() const { return curved_out_; }
  std::vector<Real>& curved_link_out() { return curved_out_; }

  // --- cell flags ---
  CellType flag(i64 cell) const { return static_cast<CellType>(flags_[cell]); }
  CellType flag(Int3 p) const { return flag(idx(p)); }
  void set_flag(i64 cell, CellType t) {
    if (flags_[cell] == static_cast<u8>(t)) return;  // no mutation, no rebuild
    flags_[cell] = static_cast<u8>(t);
    class_dirty_ = true;
    sparse_dirty_ = true;
  }
  void set_flag(Int3 p, CellType t) { set_flag(idx(p), t); }
  const std::vector<u8>& flags() const { return flags_; }

  // --- precomputed cell classification ---
  /// The span/index classification of the current flags. Rebuilt lazily,
  /// at most once per flag, face-BC or storage-mode change (any number of
  /// set_flag calls between two kernel invocations cost one rebuild). Not
  /// safe to call for the first time from concurrent threads — the pooled
  /// kernel entry points build it on the calling thread before
  /// dispatching.
  const CellClass& cell_class() const {
    if (class_dirty_) {
      class_.build(*this);
      class_dirty_ = false;
      ++class_rebuilds_;
    }
    return class_;
  }
  /// Number of classification rebuilds so far (observable by tests to
  /// assert the rebuilt-at-most-once-per-mutation contract).
  i64 cell_class_rebuilds() const { return class_rebuilds_; }

  // --- domain face boundary conditions ---
  void set_face_bc(Face face, FaceBc bc) {
    face_bc_[face] = bc;
    class_dirty_ = true;  // CellClass reads the face BCs
  }
  FaceBc face_bc(Face face) const { return face_bc_[face]; }

  void set_inlet(Real density, Vec3 velocity) {
    inlet_density_ = density;
    inlet_velocity_ = velocity;
  }
  Real inlet_density() const { return inlet_density_; }
  Vec3 inlet_velocity() const { return inlet_velocity_; }

  /// Optional spatially varying inlet: the callback maps a boundary cell
  /// to its inflow velocity (e.g. an atmospheric boundary-layer profile).
  /// Host-only — the GPU path requires a uniform inlet.
  void set_inlet_profile(std::function<Vec3(Int3)> profile) {
    inlet_profile_ = std::move(profile);
  }
  bool has_inlet_profile() const { return static_cast<bool>(inlet_profile_); }
  const std::function<Vec3(Int3)>& inlet_profile() const {
    return inlet_profile_;
  }

  /// Inflow velocity at a boundary cell (profile if set, else uniform).
  Vec3 inlet_velocity_at(Int3 cell) const {
    return inlet_profile_ ? inlet_profile_(cell) : inlet_velocity_;
  }

  // --- curved boundary links ---
  /// Registers a Bouzidi link (AA only: sparse storage rejects curved
  /// links). Its reflected direction becomes a rule link of its cell, so
  /// the classification is rebuilt.
  void add_curved_link(CurvedLink link);
  const std::vector<CurvedLink>& curved_links() const { return curved_links_; }

  // --- initialization and shape helpers ---
  /// Sets every fluid cell to equilibrium at (rho, u).
  void init_equilibrium(Real rho, Vec3 u);

  /// Marks a solid axis-aligned box [lo, hi) (clipped to the domain).
  void fill_solid_box(Int3 lo, Int3 hi);

  /// Marks a solid sphere; optionally records curved links with exact
  /// link-sphere intersection fractions for Bouzidi interpolation.
  void fill_solid_sphere(Vec3 center, Real radius, bool curved = false);

  /// Number of cells with the given flag.
  i64 count(CellType t) const;

  /// Bytes of distribution storage, as the texture-memory footprint of
  /// Section 2 would account for them: what the buffers hold (their
  /// capacity), so the figure cannot under-report. That is one buffer
  /// plus the fixup scratch and the curved-link record in AA mode, and
  /// two compact buffers plus the index pair in sparse mode.
  i64 storage_bytes() const {
    if (mode_ == StorageMode::Sparse) ensure_sparse();
    const std::size_t reals = buf_[0].capacity() + buf_[1].capacity() +
                              aa_fix_.capacity() + curved_out_.capacity();
    const std::size_t ids = sparse_map_.capacity() + sparse_cells_.capacity();
    return static_cast<i64>(reals * sizeof(Real) + ids * sizeof(i64));
  }

 private:
  i64 plane(int i) const { return i64(i) * n_; }

  /// Storage slot of logical f_i at cell p under AA phase `phase`: the one
  /// place the phase mapping is written.
  ///   phase 0: (i, x)   1: (OPP[i], x)   2: (OPP[i], x - c_i)   3: (i, x + c_i)
  /// Taking coordinates lets a caller that visits all 19 slots of a cell
  /// recover them once, not once per direction. Written without a switch
  /// so that it stays small enough to inline.
  i64 slot(int i, Int3 p, int phase) const {
    const int hop = phase == 2 ? -1 : phase == 3 ? 1 : 0;
    const int dir = phase == 1 || phase == 2 ? OPP[i] : i;
    return plane(dir) + idx(wrap(p + C[i] * hop));
  }
  /// Storage slot of logical f_i(cell) under the current phase mapping,
  /// or its compact slot in Sparse mode, for one-value access (f/set_f,
  /// and through them the border exchange) to a non-solid cell. Phases 0
  /// and 1 do not wrap, so they skip the division that recovers
  /// coordinates.
  i64 slot(int i, i64 cell) const {
    if (mode_ == StorageMode::Sparse) return sparse_slot(i, sparse_index(cell));
    if (phase_ == 0) return plane(i) + cell;
    if (phase_ == 1) return plane(OPP[i]) + cell;
    return slot(i, coords(cell), phase_);
  }
  /// p wrapped periodically along every axis: the AA address bijection.
  /// p is at most one hop outside the box, so one step per axis suffices.
  Int3 wrap(Int3 p) const {
    if (p.x < 0) p.x += dim_.x; else if (p.x >= dim_.x) p.x -= dim_.x;
    if (p.y < 0) p.y += dim_.y; else if (p.y >= dim_.y) p.y -= dim_.y;
    if (p.z < 0) p.z += dim_.z; else if (p.z >= dim_.z) p.z -= dim_.z;
    return p;
  }
  // Raw storage pointers: only the addressing policies (cell_pass.hpp)
  // use them.
  friend struct detail::CompactAddr;
  friend struct detail::AaAddr;

  /// Plane base pointers: base[cell] is f_i(cell) in the natural layout.
  Real* plane_ptr(int i) {
    GC_CHECK(plane_layout_natural());
    return buf_[cur_].data() + plane(i);
  }
  /// Compact plane base pointers: base[m] is f_i of the cell with compact
  /// id m, in the current (read) or back (write) buffer.
  Real* sparse_plane_ptr(int i) {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return buf_[cur_].data() + sparse_slot(i, 0);
  }
  Real* sparse_back_plane_ptr(int i) {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return buf_[1 - cur_].data() + sparse_slot(i, 0);
  }
  /// AA bulk base pointers: base[cell] is logical f_i(cell) under the
  /// current mapping (read) or the slot the advancing collide writes for
  /// f_i(cell) (write). The affine form only holds where the mapping
  /// needs no wrap — interior spans and runs; a span or run on a lattice
  /// face takes its pointers from the mapping at its first cell (AaAddr).
  const Real* aa_bulk_read_ptr(int i) const;
  Real* aa_bulk_write_ptr(int i);
  /// AA pointers of a span (or a run of slow or solid cells) that starts
  /// at p and whose mapping wraps (CellSpan::wraps): rd[i][k] is logical
  /// f_i of its k-th cell under the current mapping, and wr[i][k] the slot
  /// the advancing collide writes for it. The mapping never wraps between
  /// the cells of a span or run, so one pointer per direction serves all
  /// of them.
  void aa_span_ptrs(Int3 p, const Real* rd[Q], Real* wr[Q]);
  /// Compact-storage slot of f_i at compact id m (Sparse mode).
  i64 sparse_slot(int i, i64 m) const { return i64(i) * sparse_n_ + m; }
  /// Rebuilds the compact layout lazily after a flag change. Logically
  /// const: the logical field at non-solid cells is preserved exactly
  /// and solid-cell storage is unobservable.
  void ensure_sparse() const {
    if (sparse_dirty_) const_cast<Lattice*>(this)->rebuild_sparse_layout();
  }
  void rebuild_sparse_layout();
  /// Packs a natural-order plane into compact plane i (write_plane).
  void sparse_pack_plane(int i, const std::vector<Real>& natural);
  /// The one compaction path: sparse_expand() unpacks the compact planes
  /// through the current map into natural planes (0 at pruned cells);
  /// sparse_compact() rebuilds the map from the flags, in ascending dense
  /// order, packs `natural` into the current buffer (zeros when `natural`
  /// is empty) and zeroes the back one.
  std::vector<Real> sparse_expand() const;
  void sparse_compact(std::vector<Real> natural);
  /// Linear offset of one hop along C[i] (no wrap).
  i64 dir_offset(int i) const;

  Int3 dim_;
  i64 n_;
  StorageMode mode_ = StorageMode::AA;
  int phase_ = 0;
  std::array<std::vector<Real>, 2> buf_;
  int cur_ = 0;
  std::vector<Real> aa_fix_;
  std::vector<Real> curved_out_;
  std::vector<i64> sparse_map_;    ///< dense cell -> compact id, -1 pruned
  std::vector<i64> sparse_cells_;  ///< compact id -> dense cell, ascending
  i64 sparse_n_ = 0;               ///< active (non-solid) cell count
  mutable bool sparse_dirty_ = true;
  std::vector<u8> flags_;
  std::array<FaceBc, 6> face_bc_;
  Real inlet_density_ = Real(1);
  Vec3 inlet_velocity_{};
  std::function<Vec3(Int3)> inlet_profile_;
  std::vector<CurvedLink> curved_links_;
  mutable CellClass class_;
  mutable bool class_dirty_ = true;
  mutable i64 class_rebuilds_ = 0;
};

}  // namespace gc::lbm
