// The LBM lattice container: a structured 3D grid of D3Q19 distribution
// values stored as 19 contiguous planes (structure-of-arrays), in one of
// three storage modes:
//
//   DoubleBuffer — the classic A/B pattern: streaming pulls from the
//     current buffer into the back buffer and swaps. Mirrors the
//     texture-stack layout of Section 4.2 (one "volume" per distribution,
//     packed 4-at-a-time on the simulated GPU, see src/gpulbm).
//
//   AA — the in-place AA-pattern (Bailey et al.): ONE buffer, half the
//     footprint and half the main-memory traffic on the split
//     collide+stream path. The logical field f_i(x) is related to the
//     stored values by a per-phase affine bijection; bulk streaming is a
//     zero-copy reinterpretation (parity flip) and the collision pass
//     absorbs the slot swap by writing each cell's post-collision values
//     into the slots the next flip expects. The phase cycles through
//     four storage mappings (slot of logical f_i at cell x):
//
//       phase 0  even, post-stream   (i, x)              "natural"
//       phase 1  even, post-collide  (OPP[i], x)
//       phase 2  odd,  post-stream   (OPP[i], wrap(x - c_i))
//       phase 3  odd,  post-collide  (i, wrap(x + c_i))
//
//     collide advances 0->1 / 2->3 (in place: each cell's read-slot set
//     equals its write-slot set), swap_buffers() flips 1->2 / 3->0 (pure
//     parity flip: for bulk cells the post-flip logical value IS the
//     streamed value; only slow cells, those with a link that needs a
//     rule, need explicit fixups, which the stream region passes collect
//     into one scratch before the flip and finish_stream scatters after
//     it).
//     `wrap` is a per-axis periodic index wrap — an internal address
//     bijection, independent of the face boundary conditions. Across a
//     periodic face it is also the periodic pull, so the flip streams
//     the cells on periodic faces with the rest of the bulk.
//
//   Sparse — indirect fluid-index addressing (Tomczak & Szafran's
//     sparse-geometry GPU LBM): two compact buffers hold only the
//     non-solid cells, plus a dense->compact index map. Because the
//     compact cell list is built in ascending dense order, consecutive
//     dense fluid cells stay consecutive compact cells, so the
//     CellClass bulk spans remain contiguous copies in compact storage
//     and the kernels keep their branch-free shape. Solid cells have no
//     storage at all: reads return 0 (exactly what a dense post-stream
//     solid cell holds) and writes are dropped — both unobservable,
//     since no compute path ever reads solid-cell storage. The layout
//     is rebuilt lazily after flag changes, remapping the surviving
//     cells' values in place.
//
// All observation (f()/set_f, pack/unpack, gather, checkpoints) goes
// through the phase-transparent accessors, so the two modes are
// bit-exact. All raw slot arithmetic lives in this header and
// lattice.cpp — gc_lint rule GCL007 keeps it that way.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "lbm/cell_class.hpp"
#include "lbm/model.hpp"
#include "util/common.hpp"
#include "util/vec3.hpp"

namespace gc::lbm {

namespace detail {
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

/// How the distribution planes are stored (see the file header).
enum class StorageMode : u8 {
  DoubleBuffer = 0,  ///< two buffers, stream A->B then swap
  AA = 1,            ///< one buffer, in-place AA-pattern phase machine
  Sparse = 2,        ///< two compact buffers over non-solid cells only
};

/// Human-readable storage-mode name (error messages, logs).
inline const char* storage_mode_name(StorageMode m) {
  switch (m) {
    case StorageMode::DoubleBuffer: return "DoubleBuffer";
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
  explicit Lattice(Int3 dim, StorageMode mode = StorageMode::DoubleBuffer);

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
  /// in double-buffered mode.
  int aa_phase() const { return phase_; }
  bool aa_collided() const { return (phase_ & 1) != 0; }
  /// True when slot (i, cell) is simply plane(i) + cell — double-buffered
  /// mode, or AA at phase 0 (never sparse: compact storage has no dense
  /// planes). Kernels with layout-dependent fast paths branch on this;
  /// everything else uses f()/set_f and never needs to.
  bool plane_layout_natural() const {
    return mode_ != StorageMode::Sparse && phase_ == 0;
  }

  /// Marks the AA lattice collided (phase 0->1 or 2->3) after an
  /// advancing collision pass has rewritten every cell through
  /// collide_write_ptr / scatter_cell_collided.
  void aa_mark_collided() {
    GC_CHECK_MSG(mode_ == StorageMode::AA && !aa_collided(),
                 "aa_mark_collided requires an un-collided AA lattice");
    phase_ |= 1;
  }

  /// Rebuilds the lattice in the given storage mode, preserving the
  /// logical distribution field, flags and boundary state bit-exactly.
  void convert_storage(StorageMode mode);

  /// One-time entry into the fused-kernel cycle from the canonical
  /// post-stream state: relabels phase 0 as phase 1 by swapping opposing
  /// plane pairs (the logical field is unchanged).
  void aa_adopt_collided_layout();

  // --- distribution access (phase- and layout-transparent) ---
  Real f(int i, i64 cell) const {
    if (mode_ == StorageMode::Sparse) {
      const i64 m = sparse_index(cell);
      return m < 0 ? Real(0) : buf_[cur_][sparse_slot(i, m)];
    }
    return buf_[cur_][slot(i, cell)];
  }
  /// f(i, idx(p)) for a caller that already has the coordinates, which
  /// the AA mapping needs: it skips the division that recovers them.
  Real f(int i, Int3 p) const {
    if (mode_ == StorageMode::Sparse) return f(i, idx(p));
    return buf_[cur_][slot(i, p, phase_)];
  }
  void set_f(int i, i64 cell, Real v) {
    if (mode_ == StorageMode::Sparse) {
      const i64 m = sparse_index(cell);
      if (m >= 0) buf_[cur_][sparse_slot(i, m)] = v;
      return;
    }
    buf_[cur_][slot(i, cell)] = v;
  }

  /// All 19 logical values of one cell, via the current mapping.
  void gather_cell(i64 cell, Real* out) const {
    if (mode_ == StorageMode::Sparse) {
      const i64 m = sparse_index(cell);
      if (m < 0) {
        for (int i = 0; i < Q; ++i) out[i] = Real(0);
      } else {
        for (int i = 0; i < Q; ++i) out[i] = buf_[cur_][sparse_slot(i, m)];
      }
      return;
    }
    const Int3 p = coords(cell);
    for (int i = 0; i < Q; ++i) out[i] = buf_[cur_][slot(i, p, phase_)];
  }
  void scatter_cell(i64 cell, const Real* in) {
    if (mode_ == StorageMode::Sparse) {
      const i64 m = sparse_index(cell);
      if (m < 0) return;
      for (int i = 0; i < Q; ++i) buf_[cur_][sparse_slot(i, m)] = in[i];
      return;
    }
    const Int3 p = coords(cell);
    for (int i = 0; i < Q; ++i) buf_[cur_][slot(i, p, phase_)] = in[i];
  }
  /// Writes one cell's 19 values into the slots the post-collide mapping
  /// at the current parity assigns — the per-cell form of what an
  /// advancing AA collision pass does (AA mode, un-collided only).
  void scatter_cell_collided(i64 cell, const Real* in);

  /// Raw plane pointers for kernels that assume the natural layout
  /// (double-buffered kernels, checkpoint fast path). Guarded: only
  /// valid when plane_layout_natural().
  Real* plane_ptr(int i) {
    GC_CHECK(plane_layout_natural());
    return buf_[cur_].data() + plane(i);
  }
  const Real* plane_ptr(int i) const {
    GC_CHECK(plane_layout_natural());
    return buf_[cur_].data() + plane(i);
  }
  Real* back_plane_ptr(int i) {
    GC_CHECK(mode_ == StorageMode::DoubleBuffer);
    return buf_[1 - cur_].data() + plane(i);
  }
  const Real* back_plane_ptr(int i) const {
    GC_CHECK(mode_ == StorageMode::DoubleBuffer);
    return buf_[1 - cur_].data() + plane(i);
  }

  // --- sparse compact layout (Sparse mode only) ---
  // Compact storage is addressed by compact ids from sparse_index(), never
  // by dense cell indices — gc_lint rule GCL009 bans dense-index
  // arithmetic on these pointers outside lattice.{hpp,cpp}.

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
  /// Compact plane base pointers: base[m] is f_i of the cell with compact
  /// id m, in the current (read) or back (write) buffer.
  Real* sparse_plane_ptr(int i) {
    GC_CHECK(mode_ == StorageMode::Sparse);
    ensure_sparse();
    return buf_[cur_].data() + sparse_slot(i, 0);
  }
  const Real* sparse_plane_ptr(int i) const {
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
  /// needs no wrap — interior bulk spans; a span whose pulls wrap takes
  /// its pointers from the mapping at its first cell (AaAddr), and slow
  /// cells go through gather_cell/scatter_cell_collided.
  const Real* aa_bulk_read_ptr(int i) const;
  Real* aa_bulk_write_ptr(int i);

  /// DoubleBuffer/Sparse: swap current and back buffers (after a
  /// streaming pass). AA: flip parity (phase 1->2 or 3->0) — the
  /// zero-copy bulk stream; requires a collided lattice.
  void swap_buffers() {
    if (mode_ != StorageMode::AA) {
      cur_ = 1 - cur_;
      return;
    }
    GC_CHECK_MSG(aa_collided(), "AA parity flip requires a collided lattice");
    phase_ = (phase_ + 1) & 3;
  }

  /// Copies the distribution state from `src` (same dimensions and same
  /// storage mode required; mismatched modes throw StorageMismatchError).
  /// The supported way to restore distribution state wholesale — gc_lint
  /// bans naked memcpy into plane storage.
  void copy_distributions_from(const Lattice& src);

  /// Reusable scratch for the AA boundary fixups: Q values per entry of
  /// CellClass::slow, filled by the stream region passes (plain or fused)
  /// before the flip and scattered by the finish after it. Kept on the
  /// lattice so the hot loop does not reallocate every step; released
  /// when the lattice converts to another mode.
  std::vector<Real>& aa_fix_scratch() { return aa_fix_; }

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
  /// at most once per flag or face-BC mutation (any number of set_flag
  /// calls between two kernel invocations cost one rebuild). Not safe to
  /// call for the first time from concurrent threads — the pooled kernel
  /// entry points build it on the calling thread before dispatching.
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
  void add_curved_link(CurvedLink link);
  const std::vector<CurvedLink>& curved_links() const { return curved_links_; }
  void clear_curved_links() { curved_links_.clear(); }

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
  /// capacity), so the figure cannot under-report. That is both buffers
  /// in double-buffered mode, one buffer plus the fixup scratch in AA
  /// mode, and two compact buffers plus the index pair in sparse mode.
  i64 storage_bytes() const {
    if (mode_ == StorageMode::Sparse) ensure_sparse();
    const std::size_t reals =
        buf_[0].capacity() + buf_[1].capacity() + aa_fix_.capacity();
    const std::size_t ids = sparse_map_.capacity() + sparse_cells_.capacity();
    return static_cast<i64>(reals * sizeof(Real) + ids * sizeof(i64));
  }

 private:
  i64 plane(int i) const { return i64(i) * n_; }

  /// Storage slot of logical f_i at cell p under AA phase `phase` (0 in
  /// double-buffered mode): the one place the phase mapping is written.
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
  /// for one-value access (f/set_f, and through them the border
  /// exchange). Phases 0 and 1 do not wrap, so they skip the division
  /// that recovers coordinates.
  i64 slot(int i, i64 cell) const {
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
  friend struct detail::AaAddr;
  /// AA pointers of a bulk span that starts at p and whose mapping wraps
  /// (CellSpan::wraps): rd[i][k] is logical f_i of the span's k-th cell
  /// under the current mapping, and wr[i][k] the slot the advancing
  /// collide writes for it. The mapping never wraps between the cells of
  /// a span, so one pointer per direction serves all of them.
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
  /// The one compaction path: sparse_expand() unpacks the compact planes
  /// through the current map into natural planes (0 at pruned cells);
  /// sparse_compact() rebuilds the map from the flags, in ascending dense
  /// order, packs `natural` into the current buffer and zeroes the back
  /// one.
  std::vector<Real> sparse_expand() const;
  void sparse_compact(std::vector<Real> natural);
  /// Linear offset of one hop along C[i] (no wrap).
  i64 dir_offset(int i) const;

  Int3 dim_;
  i64 n_;
  StorageMode mode_ = StorageMode::DoubleBuffer;
  int phase_ = 0;
  std::array<std::vector<Real>, 2> buf_;
  int cur_ = 0;
  std::vector<Real> aa_fix_;
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
