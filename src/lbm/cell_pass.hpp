// One cell pass for every lattice kernel. The paper runs one collision
// and one streaming fragment program per pass over every texel (§4.2);
// the host kernels are written the same way. A pass is an addressing
// policy (where a cell's 19 values live in the lattice's storage mode)
// times a cell operator (what happens to them), chunked over z on the
// step's pool. The public kernels in collision/mrt/les/stream.cpp
// instantiate these templates; code outside src/lbm never includes this
// header.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm::detail {

// ---- chunking --------------------------------------------------------------

/// Runs body(b, e) over [begin, end): in chunks of at least `min_chunk`
/// indices on `pool` when set, else once on the calling thread.
template <class Body>
void for_chunks(ThreadPool* pool, i64 begin, i64 end, i64 min_chunk,
                const Body& body) {
  if (pool) {
    pool->parallel_for_chunks(begin, end, body, min_chunk);
  } else {
    body(begin, end);
  }
}

/// for_chunks over the z-slices [z0, z1) on ctx.pool. A chunk covers at
/// least ~8K cells, so tiny lattices do not pay for dispatch.
template <class Body>
void for_z_chunks(const Lattice& lat, const StepContext& ctx, int z0, int z1,
                  const Body& body) {
  const Int3 d = lat.dim();
  for_chunks(ctx.pool, z0, z1, ThreadPool::min_chunk_indices(i64(d.x) * d.y),
             [&body](i64 a, i64 b) {
               body(static_cast<int>(a), static_cast<int>(b));
             });
}

/// The entries of `list` in the z-slices [z0, z1), given its per-z
/// offsets (a CellClass `*_z` array).
template <class T>
std::span<const T> z_slice(const std::vector<T>& list,
                           const std::vector<i64>& list_z, int z0, int z1) {
  const i64 b = list_z[static_cast<std::size_t>(z0)];
  const i64 e = list_z[static_cast<std::size_t>(z1)];
  return std::span<const T>(list).subspan(static_cast<std::size_t>(b),
                                          static_cast<std::size_t>(e - b));
}

/// Linear offset from a cell to its pull source along direction i, with
/// no wrap: exact for bulk-span cells, whose pull sources are interior.
inline i64 pull_offset(Int3 d, int i) {
  return -(C[i].x + i64(d.x) * (C[i].y + i64(d.y) * C[i].z));
}

// ---- addressing policies ---------------------------------------------------
// A policy tells a pass where a cell's 19 values are:
//   rd[i], wr[i]  plane bases the pass reads and writes; the bulk span
//                 starting at dense cell c sits at at(c) .. at(c)+len-1
//   load, store   the values of one boundary cell
//   kAdvanceAll   a collide advances every cell, copying non-fluid cells
//                 through (AA), instead of touching fluid cells only

/// Plane addressing: a cell's values sit at one index of 19 planes. The
/// index is the cell itself in the double-buffered layout (NaturalAddr)
/// and its compact id from sparse_index in the sparse one (CompactAddr).
/// The compact cell list keeps dense order, so a bulk span is contiguous
/// in both. A collide reads and writes the current buffer (in_place); a
/// stream reads it and writes the back buffer (to_back).
template <bool kCompact>
struct PlaneAddr {
  static constexpr bool kAdvanceAll = false;
  const Lattice* lat;
  const Real* rd[Q];
  Real* wr[Q];

  static PlaneAddr in_place(Lattice& l) { return PlaneAddr(l, false); }
  static PlaneAddr to_back(Lattice& l) { return PlaneAddr(l, true); }

  i64 at(i64 cell) const {
    if constexpr (kCompact) {
      return lat->sparse_index(cell);
    } else {
      return cell;
    }
  }
  void load(i64 cell, Real f[Q]) const {
    const i64 m = at(cell);
    for (int i = 0; i < Q; ++i) f[i] = rd[i][m];
  }
  void store(i64 cell, const Real f[Q]) const {
    const i64 m = at(cell);
    for (int i = 0; i < Q; ++i) wr[i][m] = f[i];
  }
  /// Zeroes the written values of solid cells, which is what a pull
  /// stream leaves there. Compact storage has no solid cells.
  void zero_solids(std::span<const i64> cells) const {
    if constexpr (!kCompact) {
      for (const i64 c : cells) {
        for (int i = 0; i < Q; ++i) wr[i][c] = Real(0);
      }
    }
  }

 private:
  PlaneAddr(Lattice& l, bool back) : lat(&l) {
    for (int i = 0; i < Q; ++i) {
      if constexpr (kCompact) {
        rd[i] = l.sparse_plane_ptr(i);
        wr[i] = back ? l.sparse_back_plane_ptr(i) : l.sparse_plane_ptr(i);
      } else {
        rd[i] = l.plane_ptr(i);
        wr[i] = back ? l.back_plane_ptr(i) : l.plane_ptr(i);
      }
    }
  }
};
using NaturalAddr = PlaneAddr<false>;
using CompactAddr = PlaneAddr<true>;

/// AA addressing, for the advancing collide: bulk cells read through the
/// current mapping and write the slots the post-collide mapping assigns,
/// so the next parity flip streams them for free. Boundary cells, whose
/// mapping wraps, go through gather_cell / scatter_cell_collided. Every
/// cell must be advanced, not just fluid ones: the flip streams the
/// whole field, solid border cells hold their init values until first
/// streamed, and the exchange packs border cells of any flag. Each
/// cell's read-slot set equals its write-slot set, so cells can be
/// advanced in any order and in parallel.
struct AaAddr {
  static constexpr bool kAdvanceAll = true;
  Lattice* lat;
  const Real* rd[Q];
  Real* wr[Q];

  explicit AaAddr(Lattice& l) : lat(&l) {
    for (int i = 0; i < Q; ++i) {
      rd[i] = l.aa_bulk_read_ptr(i);
      wr[i] = l.aa_bulk_write_ptr(i);
    }
  }
  i64 at(i64 cell) const { return cell; }
  void load(i64 cell, Real f[Q]) const { lat->gather_cell(cell, f); }
  void store(i64 cell, const Real f[Q]) const {
    lat->scatter_cell_collided(cell, f);
  }
};

// ---- the collide pass ------------------------------------------------------

/// True when box spans the lattice in x and y (z is the pass's slice
/// range), so no cell needs a box test.
inline bool covers_xy(const CellBox& box, Int3 d) {
  return box.lo.x <= 0 && box.lo.y <= 0 && box.hi.x >= d.x && box.hi.y >= d.y;
}

/// Applies op(f, cell) to the bulk spans of slices [z0, z1) inside box.
/// A span is one row, so once its y is inside only its x extent needs
/// clipping. The loop has no GC_RESTRICT: under AA at odd parity, rd[i]
/// and wr[OPP[i]] are the same pointer.
template <class Addr, class Op>
void collide_spans(const Lattice& lat, const CellClass& cc, const Addr& a,
                   const Op& op, const CellBox& box, int z0, int z1) {
  const Int3 d = lat.dim();
  const bool whole = covers_xy(box, d);
  Real f[Q];
  for (CellSpan sp : z_slice(cc.spans, cc.span_z, z0, z1)) {
    if (!whole) {
      const int y = static_cast<int>((sp.begin / d.x) % d.y);
      const int x0 = static_cast<int>(sp.begin % d.x);
      const int xb = std::max(x0, box.lo.x);
      const int xe = std::min(x0 + sp.len, box.hi.x);
      if (y < box.lo.y || y >= box.hi.y || xb >= xe) continue;
      sp = {sp.begin + (xb - x0), static_cast<i32>(xe - xb)};
    }
    const i64 at0 = a.at(sp.begin);
    for (i32 k = 0; k < sp.len; ++k) {
      for (int i = 0; i < Q; ++i) f[i] = a.rd[i][at0 + k];
      op(f, sp.begin + k);
      for (int i = 0; i < Q; ++i) a.wr[i][at0 + k] = f[i];
    }
  }
}

/// Applies op(f, cell) to the boundary fluid cells of slices [z0, z1)
/// inside box, through the policy's load/store. Under AA every slow and
/// solid cell is loaded and stored, and only the fluid ones collide.
template <class Addr, class Op>
void collide_boundary(const Lattice& lat, const CellClass& cc, const Addr& a,
                      const Op& op, const CellBox& box, int z0, int z1) {
  const bool whole = covers_xy(box, lat.dim());
  auto advance = [&](std::span<const i64> cells) {
    Real f[Q];
    for (const i64 c : cells) {
      if (!whole) {
        const Int3 p = lat.coords(c);
        if (p.x < box.lo.x || p.x >= box.hi.x || p.y < box.lo.y ||
            p.y >= box.hi.y) {
          continue;
        }
      }
      a.load(c, f);
      if (lat.flag(c) == CellType::Fluid) op(f, c);
      a.store(c, f);
    }
  };
  if constexpr (Addr::kAdvanceAll) {
    advance(z_slice(cc.slow, cc.slow_z, z0, z1));
    advance(z_slice(cc.solid, cc.solid_z, z0, z1));
  } else {
    advance(z_slice(cc.fluid_slow, cc.fluid_slow_z, z0, z1));
  }
}

/// Collides the cells of box in place with op(f, cell), chunked over z on
/// ctx.pool: the one storage-mode dispatch of every collide kernel. Only
/// fluid cells change value. Under AA every cell in the box is advanced
/// and the lattice is marked collided; ghost cells outside the box stay
/// un-advanced, which is safe because unpack rewrites them under the
/// post-collide mapping before anything reads them. Emits no span: the
/// caller's "collide" span times the phase.
template <class Op>
void collide_pass(Lattice& lat, const Op& op, const StepContext& ctx,
                  const CellBox& box) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  const int nz = lat.dim().z;
  const int z0 = std::clamp(box.lo.z, 0, nz);
  const int z1 = std::clamp(box.hi.z, z0, nz);
  auto run = [&](const auto& addr) {
    for_z_chunks(lat, ctx, z0, z1, [&](int a, int b) {
      collide_spans(lat, cc, addr, op, box, a, b);
      collide_boundary(lat, cc, addr, op, box, a, b);
    });
  };
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      run(NaturalAddr::in_place(lat));
      return;
    case StorageMode::Sparse:
      run(CompactAddr::in_place(lat));
      return;
    case StorageMode::AA:
      run(AaAddr(lat));
      lat.aa_mark_collided();
      return;
  }
}

}  // namespace gc::lbm::detail
