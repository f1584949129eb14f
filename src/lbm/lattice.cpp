#include "lbm/lattice.hpp"

#include <algorithm>
#include <cmath>

namespace gc::lbm {

Lattice::Lattice(Int3 dim, StorageMode mode)
    : dim_(dim), n_(dim.volume()), mode_(mode) {
  GC_CHECK_MSG(dim.x > 0 && dim.y > 0 && dim.z > 0,
               "lattice dimensions must be positive, got " << dim);
  // Sparse storage is sized lazily by rebuild_sparse_layout() once the
  // flags are known; AA allocates its full planes up front.
  if (mode_ == StorageMode::AA) {
    buf_[0].assign(static_cast<std::size_t>(Q * n_), Real(0));
  }
  flags_.assign(static_cast<std::size_t>(n_), static_cast<u8>(CellType::Fluid));
  face_bc_.fill(FaceBc::Periodic);
}

i64 Lattice::dir_offset(int i) const {
  return C[i].x + i64(dim_.x) * (C[i].y + i64(dim_.y) * C[i].z);
}

const Real* Lattice::aa_bulk_read_ptr(int i) const {
  GC_CHECK(mode_ == StorageMode::AA);
  const Real* base = buf_[cur_].data();
  switch (phase_) {
    case 0: return base + plane(i);
    case 1: return base + plane(OPP[i]);
    case 2: return base + plane(OPP[i]) - dir_offset(i);
    default: return base + plane(i) + dir_offset(i);
  }
}

Real* Lattice::aa_bulk_write_ptr(int i) {
  GC_CHECK_MSG(mode_ == StorageMode::AA && !aa_collided(),
               "AA collide write pointers require an un-collided lattice");
  Real* base = buf_[cur_].data();
  // Post-collide mapping at the current parity: 0->1 or 2->3.
  return phase_ == 0 ? base + plane(OPP[i]) : base + plane(i) + dir_offset(i);
}

void Lattice::aa_span_ptrs(Int3 p, const Real* rd[Q], Real* wr[Q]) {
  GC_CHECK_MSG(mode_ == StorageMode::AA && !aa_collided(),
               "AA collide span pointers require an un-collided lattice");
  // The collide writes f_i where it read f_OPP[i] (a cell's read-slot set
  // is its write-slot set), so one slot per direction serves both.
  Real* base = buf_[cur_].data();
  for (int i = 0; i < Q; ++i) wr[OPP[i]] = base + slot(i, p, phase_);
  for (int i = 0; i < Q; ++i) rd[i] = wr[OPP[i]];
}

std::vector<Real> Lattice::sparse_expand() const {
  // Pruned (solid) cells expand to 0, what the accessors read there.
  std::vector<Real> natural(static_cast<std::size_t>(Q * n_), Real(0));
  for (int i = 0; i < Q; ++i) {
    const Real* src = buf_[cur_].data() + sparse_slot(i, 0);
    Real* dst = natural.data() + plane(i);
    for (i64 m = 0; m < sparse_n_; ++m) dst[sparse_cells_[m]] = src[m];
  }
  return natural;
}

void Lattice::sparse_compact(std::vector<Real> natural) {
  // The map in ascending dense order: the span-contiguity invariant the
  // sparse kernels rely on. Every buffer is a fresh allocation of its
  // size, so a smaller layout releases what the old one held.
  sparse_n_ = n_ - count(CellType::Solid);
  std::vector<i64> map(static_cast<std::size_t>(n_), i64(-1));
  std::vector<i64> cells;
  cells.reserve(static_cast<std::size_t>(sparse_n_));
  for (i64 c = 0; c < n_; ++c) {
    if (flags_[static_cast<std::size_t>(c)] ==
        static_cast<u8>(CellType::Solid)) {
      continue;
    }
    map[static_cast<std::size_t>(c)] = static_cast<i64>(cells.size());
    cells.push_back(c);
  }
  sparse_map_ = std::move(map);
  sparse_cells_ = std::move(cells);
  // Dropping solid cells' values is unobservable: they read 0 in every
  // storage mode.
  const auto size = static_cast<std::size_t>(Q * sparse_n_);
  buf_[1 - cur_] = std::vector<Real>();  // never held beside the new layout
  std::vector<Real> compact(size);
  if (!natural.empty()) {
    for (int i = 0; i < Q; ++i) {
      const Real* src = natural.data() + plane(i);
      Real* dst = compact.data() + sparse_slot(i, 0);
      for (i64 m = 0; m < sparse_n_; ++m) dst[m] = src[sparse_cells_[m]];
    }
  }
  buf_[cur_] = std::move(compact);
  buf_[1 - cur_] = std::vector<Real>(size, Real(0));
  sparse_dirty_ = false;
}

void Lattice::rebuild_sparse_layout() {
  GC_CHECK(mode_ == StorageMode::Sparse);
  // Expanding through the OLD map keeps the values of cells that survive
  // a flag change; newly active cells start at 0. A layout that holds no
  // cell, such as a new lattice's, expands to zeros, so its successor is
  // compacted from the flags without the dense field.
  sparse_compact(sparse_n_ == 0 ? std::vector<Real>() : sparse_expand());
}

void Lattice::sparse_pack_plane(int i, const std::vector<Real>& natural) {
  ensure_sparse();
  Real* dst = buf_[cur_].data() + sparse_slot(i, 0);
  for (i64 m = 0; m < sparse_n_; ++m) dst[m] = natural[sparse_cells_[m]];
}

void Lattice::convert_storage(StorageMode mode) {
  if (mode == mode_) return;
  GC_CHECK_MSG(mode != StorageMode::Sparse || curved_links_.empty(),
               "sparse storage does not support curved boundary links");
  // The two layouts meet in the natural planes, which AA holds at phase
  // 0. What the old mode held and the new one does not use is released:
  // the AA fixups and curved-link record, or the sparse index pair and
  // second buffer. The classification records rule links under AA only,
  // so it is rebuilt.
  class_dirty_ = true;
  if (mode == StorageMode::Sparse) {
    std::vector<Real> natural;
    if (phase_ == 0) {
      natural = std::move(buf_[cur_]);
    } else {
      natural.resize(static_cast<std::size_t>(Q * n_));
      for (int i = 0; i < Q; ++i)
        for (i64 c = 0; c < n_; ++c)
          natural[plane(i) + c] = buf_[cur_][slot(i, c)];
    }
    aa_fix_ = std::vector<Real>();
    curved_out_ = std::vector<Real>();
    cur_ = 0;
    phase_ = 0;
    mode_ = StorageMode::Sparse;
    sparse_compact(std::move(natural));
    return;
  }
  ensure_sparse();
  std::vector<Real> natural = sparse_expand();
  buf_[1] = std::vector<Real>();
  buf_[0] = std::move(natural);
  sparse_map_ = std::vector<i64>();
  sparse_cells_ = std::vector<i64>();
  sparse_n_ = 0;
  sparse_dirty_ = true;
  cur_ = 0;
  mode_ = StorageMode::AA;
}

void Lattice::add_curved_link(CurvedLink link) {
  GC_CHECK_MSG(mode_ == StorageMode::AA,
               "sparse storage does not support curved boundary links");
  GC_CHECK_MSG(link.q > Real(0) && link.q <= Real(1),
               "curved link fraction must be in (0,1], got " << link.q);
  GC_CHECK(link.dir >= 1 && link.dir < Q);
  GC_CHECK(link.cell >= 0 && link.cell < n_);
  curved_links_.push_back(link);
  class_dirty_ = true;  // its reflected direction is a rule link
}

void Lattice::init_equilibrium(Real rho, Vec3 u) {
  Real feq[Q];
  equilibrium_all(rho, u, feq);
  if (mode_ == StorageMode::Sparse) {
    ensure_sparse();
    for (int i = 0; i < Q; ++i) {
      for (int b = 0; b < 2; ++b) {
        Real* p = buf_[b].data() + sparse_slot(i, 0);
        std::fill(p, p + sparse_n_, feq[i]);
      }
    }
    return;
  }
  phase_ = 0;  // the canonical post-stream state
  for (int i = 0; i < Q; ++i) {
    Real* p = plane_ptr(i);
    std::fill(p, p + n_, feq[i]);
  }
}

void Lattice::fill_solid_box(Int3 lo, Int3 hi) {
  const Int3 clo{std::max(lo.x, 0), std::max(lo.y, 0), std::max(lo.z, 0)};
  const Int3 chi{std::min(hi.x, dim_.x), std::min(hi.y, dim_.y),
                 std::min(hi.z, dim_.z)};
  for (int z = clo.z; z < chi.z; ++z)
    for (int y = clo.y; y < chi.y; ++y)
      for (int x = clo.x; x < chi.x; ++x)
        set_flag(idx(x, y, z), CellType::Solid);
}

void Lattice::fill_solid_sphere(Vec3 center, Real radius, bool curved) {
  const Real r2 = radius * radius;
  const int x0 = std::max(0, static_cast<int>(std::floor(center.x - radius)) - 1);
  const int x1 = std::min(dim_.x - 1, static_cast<int>(std::ceil(center.x + radius)) + 1);
  const int y0 = std::max(0, static_cast<int>(std::floor(center.y - radius)) - 1);
  const int y1 = std::min(dim_.y - 1, static_cast<int>(std::ceil(center.y + radius)) + 1);
  const int z0 = std::max(0, static_cast<int>(std::floor(center.z - radius)) - 1);
  const int z1 = std::min(dim_.z - 1, static_cast<int>(std::ceil(center.z + radius)) + 1);

  auto inside = [&](Vec3 p) { return (p - center).norm2() <= r2; };

  for (int z = z0; z <= z1; ++z)
    for (int y = y0; y <= y1; ++y)
      for (int x = x0; x <= x1; ++x)
        if (inside(Vec3(Real(x), Real(y), Real(z))))
          set_flag(idx(x, y, z), CellType::Solid);

  if (!curved) return;

  // Record the exact link/sphere intersection fraction q for each fluid
  // cell whose link toward the sphere crosses the surface.
  for (int z = std::max(0, z0 - 1); z <= std::min(dim_.z - 1, z1 + 1); ++z) {
    for (int y = std::max(0, y0 - 1); y <= std::min(dim_.y - 1, y1 + 1); ++y) {
      for (int x = std::max(0, x0 - 1); x <= std::min(dim_.x - 1, x1 + 1); ++x) {
        const i64 cell = idx(x, y, z);
        if (flag(cell) != CellType::Fluid) continue;
        const Vec3 p{Real(x), Real(y), Real(z)};
        for (int i = 1; i < Q; ++i) {
          const Int3 np{x + C[i].x, y + C[i].y, z + C[i].z};
          if (!in_bounds(np) || flag(np) != CellType::Solid) continue;
          // Solve |p + t*c - center|^2 = r^2 for t in (0, 1].
          const Vec3 c{Real(C[i].x), Real(C[i].y), Real(C[i].z)};
          const Vec3 d = p - center;
          const Real a = dot(c, c);
          const Real b = Real(2) * dot(c, d);
          const Real cc = dot(d, d) - r2;
          const Real disc = b * b - Real(4) * a * cc;
          Real q = Real(0.5);  // fall back to half-way bounce-back
          if (disc >= Real(0)) {
            const Real t = (-b - std::sqrt(disc)) / (Real(2) * a);
            if (t > Real(0) && t <= Real(1)) q = t;
          }
          add_curved_link({cell, i, q});
        }
      }
    }
  }
}

i64 Lattice::count(CellType t) const {
  return std::count(flags_.begin(), flags_.end(), static_cast<u8>(t));
}

void Lattice::copy_distributions_from(const Lattice& src) {
  GC_CHECK_MSG(src.dim() == dim_, "lattice dimensions "
                                      << src.dim() << " do not match "
                                      << dim_);
  if (src.mode_ != mode_) {
    std::ostringstream os;
    os << "copy_distributions_from: storage modes differ (src "
       << storage_mode_name(src.mode_) << ", dst " << storage_mode_name(mode_)
       << ") — convert_storage first";
    throw StorageMismatchError(os.str());
  }
  if (mode_ == StorageMode::Sparse) {
    // Compact ids only line up when the two lattices prune the same
    // cells; a geometry mismatch is a layout mismatch, not a copy.
    if (src.flags_ != flags_) {
      throw StorageMismatchError(
          "copy_distributions_from: sparse layouts differ (cell flags do "
          "not match) — convert_storage through AA first");
    }
    ensure_sparse();
    src.ensure_sparse();
  }
  // Same mode (and layout): adopt the source's buffer and phase wholesale.
  buf_[cur_] = src.buf_[src.cur_];
  phase_ = src.phase_;
}

}  // namespace gc::lbm
