// One cell pass for every lattice kernel. The paper runs one collision
// and one streaming fragment program per pass over every texel (§4.2);
// the host kernels are written the same way. A pass is an addressing
// policy (where a cell's 19 values live in the lattice's storage mode)
// times a cell operator (what happens to them), chunked over z on the
// step's pool and clipped to a CellBox. Bulk spans run the operator over
// tiles of adjacent cells, the host's stand-in for the GPU's parallel
// pixel pipes. Streaming is a region pass plus a finish that take an
// optional cell operator: none for a plain stream, BGK for the fused
// stream+collide step, so the two share one streaming body. The public
// kernels in collision/mrt/les/stream.cpp instantiate these templates;
// outside src/lbm only the kernel tests include this header.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <vector>

#include "lbm/boundary.hpp"
#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"
#include "lbm/stream.hpp"

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

/// for_chunks over the z-slices of box (clipped to the lattice) on
/// ctx.pool. A chunk covers at least ~8K cells, so tiny lattices do not
/// pay for dispatch.
template <class Body>
void for_z_chunks(const Lattice& lat, const StepContext& ctx,
                  const CellBox& box, const Body& body) {
  const Int3 d = lat.dim();
  const int z0 = std::clamp(box.lo.z, 0, d.z);
  const int z1 = std::clamp(box.hi.z, z0, d.z);
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

// ---- box clipping ----------------------------------------------------------
// The cells of a box in one z-slice are runs of consecutive cell indices:
// one run per row, or a single run when the box spans the lattice in x
// (its rows then abut). Every CellClass list is sorted by cell, so the
// entries of a run are found by binary search and walked without a
// per-cell test.

/// Calls run(a, b) for each run [a, b) of box in slice z, ascending.
template <class Fn>
void for_box_runs(Int3 d, const CellBox& box, int z, const Fn& run) {
  const int x0 = std::clamp(box.lo.x, 0, d.x);
  const int x1 = std::clamp(box.hi.x, x0, d.x);
  const int y0 = std::clamp(box.lo.y, 0, d.y);
  const int y1 = std::clamp(box.hi.y, y0, d.y);
  if (x0 == x1) return;
  const i64 slice = i64(z) * d.y;
  if (x0 == 0 && x1 == d.x) {
    if (y0 < y1) run((slice + y0) * d.x, (slice + y1) * d.x);
    return;
  }
  for (int y = y0; y < y1; ++y) {
    const i64 row = (slice + y) * d.x;
    run(row + x0, row + x1);
  }
}

/// Calls fn(sp) for every bulk span of slices [z0, z1), clipped to box.
template <class Fn>
void for_box_spans(const Lattice& lat, const CellClass& cc, const CellBox& box,
                   int z0, int z1, const Fn& fn) {
  for (int z = z0; z < z1; ++z) {
    const auto spans = z_slice(cc.spans, cc.span_z, z, z + 1);
    auto it = spans.begin();
    for_box_runs(lat.dim(), box, z, [&](i64 a, i64 b) {
      // A span never crosses a row, so only the first and last span of a
      // run can stick out of it.
      it = std::partition_point(it, spans.end(), [a](const CellSpan& sp) {
        return sp.begin + sp.len <= a;
      });
      for (; it != spans.end() && it->begin < b; ++it) {
        const i64 s0 = std::max(it->begin, a);
        const i64 s1 = std::min(it->begin + it->len, b);
        fn(CellSpan{s0, static_cast<i32>(s1 - s0)});
      }
    });
  }
}

/// Calls fn(k, list[k]) for every entry k of a CellClass cell list (with
/// per-z offsets list_z) whose cell lies in box, in slices [z0, z1).
template <class Fn>
void for_box_cells(const Lattice& lat, const std::vector<i64>& list,
                   const std::vector<i64>& list_z, const CellBox& box, int z0,
                   int z1, const Fn& fn) {
  for (int z = z0; z < z1; ++z) {
    auto it = list.begin() + list_z[static_cast<std::size_t>(z)];
    const auto end = list.begin() + list_z[static_cast<std::size_t>(z) + 1];
    for_box_runs(lat.dim(), box, z, [&](i64 a, i64 b) {
      it = std::lower_bound(it, end, a);
      for (; it != end && *it < b; ++it) fn(it - list.begin(), *it);
    });
  }
}

// ---- cell operators and the tile loop --------------------------------------

/// Cells per tile of the bulk span loop. 8 and 16 run at the same speed
/// on a 64^3 box; 32 is slower.
inline constexpr int kTile = 8;

/// Lane-count tag of a cell operator call. An operator is called as
/// op(f, Lanes<L>{}) on L cells at once, f[i * L + l] holding f_i of
/// lane l; at L = 1 that is the plain f[Q] of one cell. Every operator
/// takes one lane. One that also takes kTile lanes runs the bulk in
/// tiles; the others run it one cell at a time through the same loop.
template <int L>
struct Lanes {};

template <class Op>
inline constexpr int kLanesOf =
    std::is_invocable_v<const Op&, Real*, Lanes<kTile>> ? kTile : 1;

/// Runs op over the len cells of one bulk span, reading cell k's values
/// at in[i][k] and writing them to out[i][k]. The cells are staged a tile
/// at a time in a [Q][L] block, so every lane loop of the operator has a
/// fixed trip count and the compiler vectorizes it. A partial tile is
/// padded with copies of its last cell, which are computed and dropped.
/// A tile is read whole before any of it is written, which is safe when
/// in and out overlap as long as the tile's read slots are its write
/// slots (in place, and AA: see AaAddr).
template <class Op>
void run_span(const Real* const in[Q], Real* const out[Q], i32 len,
              const Op& op) {
  constexpr int L = kLanesOf<Op>;
  alignas(64) Real t[Q * L];
  for (i32 k0 = 0; k0 < len; k0 += L) {
    const int n = std::min<i32>(L, len - k0);
    for (int i = 0; i < Q; ++i) {
      const Real* src = in[i] + k0;
      Real* ti = t + i * L;
      if (n == L) {
        for (int l = 0; l < L; ++l) ti[l] = src[l];
      } else {
        for (int l = 0; l < L; ++l) ti[l] = src[std::min(l, n - 1)];
      }
    }
    op(t, Lanes<L>{});
    for (int i = 0; i < Q; ++i) {
      Real* dst = out[i] + k0;
      const Real* ti = t + i * L;
      if (n == L) {
        for (int l = 0; l < L; ++l) dst[l] = ti[l];
      } else {
        for (int l = 0; l < n; ++l) dst[l] = ti[l];
      }
    }
  }
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
  /// Zeroes the written values of a solid cell, which is what a pull
  /// stream leaves there. Compact storage has no solid cells.
  void zero_solid(i64 cell) const {
    if constexpr (!kCompact) {
      for (int i = 0; i < Q; ++i) wr[i][cell] = Real(0);
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
/// advanced in any order and in parallel, and so can whole tiles.
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

/// Applies op to the bulk spans of slices [z0, z1) inside box. Under AA
/// at odd parity, rd[i] and wr[OPP[i]] are the same pointer.
template <class Addr, class Op>
void collide_spans(const Lattice& lat, const CellClass& cc, const Addr& a,
                   const Op& op, const CellBox& box, int z0, int z1) {
  for_box_spans(lat, cc, box, z0, z1, [&](const CellSpan& sp) {
    const i64 at0 = a.at(sp.begin);
    const Real* in[Q];
    Real* out[Q];
    for (int i = 0; i < Q; ++i) {
      in[i] = a.rd[i] + at0;
      out[i] = a.wr[i] + at0;
    }
    run_span(in, out, sp.len, op);
  });
}

/// Applies op to the boundary fluid cells of slices [z0, z1) inside box,
/// one cell at a time through the policy's load/store. Under AA every
/// slow and solid cell is loaded and stored, and only the fluid ones
/// collide.
template <class Addr, class Op>
void collide_boundary(const Lattice& lat, const CellClass& cc, const Addr& a,
                      const Op& op, const CellBox& box, int z0, int z1) {
  auto advance = [&](const std::vector<i64>& list,
                     const std::vector<i64>& list_z) {
    Real f[Q];
    for_box_cells(lat, list, list_z, box, z0, z1, [&](i64, i64 c) {
      a.load(c, f);
      if (lat.flag(c) == CellType::Fluid) op(f, Lanes<1>{});
      a.store(c, f);
    });
  };
  if constexpr (Addr::kAdvanceAll) {
    advance(cc.slow, cc.slow_z);
    advance(cc.solid, cc.solid_z);
  } else {
    advance(cc.fluid_slow, cc.fluid_slow_z);
  }
}

/// Collides the cells of box in place with op, chunked over z on
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
  auto run = [&](const auto& addr) {
    for_z_chunks(lat, ctx, box, [&](int a, int b) {
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

// ---- the stream pass -------------------------------------------------------
// A stream is a region pass per box plus one finish. Given a cell
// operator, the same two collide each fluid cell's pulled values: that
// is the fused stream+collide step. A plain stream passes NoOp.

/// The operator of a plain stream: pulled values stay as pulled.
struct NoOp {};

template <class Op>
inline constexpr bool kCollides = !std::is_same_v<Op, NoOp>;

/// The streamed values of one slow cell: its pulls, collided with op when
/// the cell is fluid. An inlet cell keeps its pulls until the finish
/// imposes its equilibrium; outflow cells pass through.
template <class Op>
void pull_slow_cell(const Lattice& lat, i64 cell, const Op& op, Real f[Q]) {
  pull_cell(lat, cell, f);
  if constexpr (kCollides<Op>) {
    if (lat.flag(cell) == CellType::Fluid) op(f, Lanes<1>{});
  }
}

/// Calls fn(k, list[k]) for every entry k of a CellClass cell list whose
/// cell lies in box, like for_box_cells, but in equal shares of those
/// entries per chunk on ctx.pool rather than by z-slice: the AA ring of
/// a periodic box lies mostly in its first and last slices, where equal
/// z-chunks would hand box_aa's 4 threads 7876/4032/4032/7876 of its
/// 23,816 ring cells. Each chunk walks the box's runs and skips the
/// entries before its share, so no entry is tested. Without a pool there
/// is nothing to share out, and the plain walk runs.
template <class Fn>
void for_box_cells_even(const Lattice& lat, const std::vector<i64>& list,
                        const std::vector<i64>& list_z, const CellBox& box,
                        const StepContext& ctx, const Fn& fn) {
  const Int3 d = lat.dim();
  const int z0 = std::clamp(box.lo.z, 0, d.z);
  const int z1 = std::clamp(box.hi.z, z0, d.z);
  if (!ctx.pool) return for_box_cells(lat, list, list_z, box, z0, z1, fn);
  // Calls range(b, e) for the entries [b, e) of each run, ascending.
  auto for_ranges = [&](const auto& range) {
    for (int z = z0; z < z1; ++z) {
      auto it = list.begin() + list_z[static_cast<std::size_t>(z)];
      const auto end = list.begin() + list_z[static_cast<std::size_t>(z) + 1];
      for_box_runs(d, box, z, [&](i64 a, i64 b) {
        it = std::lower_bound(it, end, a);
        const auto stop = std::lower_bound(it, end, b);
        range(it - list.begin(), stop - list.begin());
        it = stop;
      });
    }
  };
  i64 total = 0;
  for_ranges([&total](i64 b, i64 e) { total += e - b; });
  for_chunks(ctx.pool, 0, total, ThreadPool::min_chunk_indices(256),
             [&](i64 n0, i64 n1) {
               i64 n = 0;  // the box's entries before this range
               for_ranges([&](i64 b, i64 e) {
                 const i64 k1 = std::min(e, b + n1 - n);
                 for (i64 k = b + std::max<i64>(0, n0 - n); k < k1; ++k) {
                   fn(k, list[static_cast<std::size_t>(k)]);
                 }
                 n += e - b;
               });
             });
}

/// DoubleBuffer and Sparse: streams the cells of box into the back
/// buffer. A bulk cell's pull is an offset, so a bulk span reads shifted
/// plane pointers: a plain copy without an operator, the tile loop with
/// one. The compact layout needs the index map only for each span's base
/// offsets (the pull sources of a bulk span, or of any piece of one, form
/// another contiguous run of fluid cells). Slow cells take pull_slow_cell
/// and solid cells are zeroed where they have storage.
template <bool kCompact, class Op>
void pull_region(Lattice& lat, const CellClass& cc,
                 const PlaneAddr<kCompact>& a, const CellBox& box,
                 const StepContext& ctx, const Op& op) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = pull_offset(lat.dim(), i);
  for_z_chunks(lat, ctx, box, [&](int z0, int z1) {
    for_box_spans(lat, cc, box, z0, z1, [&](const CellSpan& sp) {
      const i64 out0 = a.at(sp.begin);
      if constexpr (kCollides<Op>) {
        const Real* in[Q];
        Real* out[Q];
        for (int i = 0; i < Q; ++i) {
          in[i] = a.rd[i] + a.at(sp.begin + shift[i]);
          out[i] = a.wr[i] + out0;
        }
        run_span(in, out, sp.len, op);
      } else {
        for (int i = 0; i < Q; ++i) {
          Real* GC_RESTRICT out = a.wr[i] + out0;
          const Real* GC_RESTRICT in = a.rd[i] + a.at(sp.begin + shift[i]);
          for (i32 k = 0; k < sp.len; ++k) out[k] = in[k];
        }
      }
    });
    Real f[Q];
    for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1, [&](i64, i64 cell) {
      pull_slow_cell(lat, cell, op, f);
      a.store(cell, f);
    });
    for_box_cells(lat, cc.solid, cc.solid_z, box, z0, z1,
                  [&](i64, i64 cell) { a.zero_solid(cell); });
  });
}

/// AA: collects the streamed values of the box's slow cells into the
/// fixup scratch, at their position in CellClass::slow. A pure read of
/// the post-collide field through the accessors, which is exactly what
/// the double-buffered pull reads; the bulk streams in the flip.
template <class Op>
void collect_region(Lattice& lat, const CellClass& cc, const CellBox& box,
                    const StepContext& ctx, const Op& op) {
  std::vector<Real>& fix = lat.aa_fix_scratch();
  fix.resize(cc.slow.size() * Q);
  for_box_cells_even(lat, cc.slow, cc.slow_z, box, ctx, [&](i64 k, i64 cell) {
    pull_slow_cell(lat, cell, op, fix.data() + k * Q);
  });
}

/// The stream region pass (stream_region) over box, colliding every
/// fluid cell with op unless op is NoOp.
template <class Op = NoOp>
void stream_pass(Lattice& lat, const CellBox& box, const StepContext& ctx,
                 const Op& op = {}) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      pull_region(lat, cc, NaturalAddr::to_back(lat), box, ctx, op);
      return;
    case StorageMode::Sparse:
      pull_region(lat, cc, CompactAddr::to_back(lat), box, ctx, op);
      return;
    case StorageMode::AA:
      collect_region(lat, cc, box, ctx, op);
      return;
  }
}

/// AA: flips the parity (the zero-copy bulk stream), then writes the
/// region passes' fixups, and zeros at solids, through the new mapping.
/// With an operator the bulk is first collided in place by the collide
/// pass's span loop, the writes go through the post-collide mapping and
/// the lattice ends collided, so the next fused step flips first; a
/// lattice fresh from init enters that cycle as post-collision. Each
/// cell writes its own slot group, so every phase runs in chunks on
/// ctx.pool.
template <class Op>
void finish_aa(Lattice& lat, const CellClass& cc, const StepContext& ctx,
               const Op& op) {
  const std::vector<Real>& fix = lat.aa_fix_scratch();
  const i64 nslow = static_cast<i64>(cc.slow.size());
  GC_CHECK_MSG(static_cast<i64>(fix.size()) == nslow * Q,
               "finish_stream(AA) needs the region passes' fixups first");
  if constexpr (kCollides<Op>) {
    if (!lat.aa_collided()) lat.aa_adopt_collided_layout();
  }
  lat.swap_buffers();
  if constexpr (kCollides<Op>) {
    const AaAddr bulk(lat);
    for_z_chunks(lat, ctx, CellBox{}, [&](int z0, int z1) {
      collide_spans(lat, cc, bulk, op, CellBox{}, z0, z1);
    });
  }
  auto put = [&lat](i64 cell, const Real* f) {
    if constexpr (kCollides<Op>) {
      lat.scatter_cell_collided(cell, f);
    } else {
      lat.scatter_cell(cell, f);
    }
  };
  const Real zeros[Q] = {};
  const i64 min_chunk = ThreadPool::min_chunk_indices(256);
  for_chunks(ctx.pool, 0, nslow, min_chunk, [&](i64 k0, i64 k1) {
    for (i64 k = k0; k < k1; ++k) {
      put(cc.slow[static_cast<std::size_t>(k)], fix.data() + k * Q);
    }
  });
  for_chunks(ctx.pool, 0, static_cast<i64>(cc.solid.size()), min_chunk,
             [&](i64 k0, i64 k1) {
               for (i64 k = k0; k < k1; ++k) {
                 put(cc.solid[static_cast<std::size_t>(k)], zeros);
               }
             });
  if constexpr (kCollides<Op>) lat.aa_mark_collided();
}

/// finish_stream, with op the operator of the region passes it
/// completes: swaps the buffers or finishes AA, then imposes the inlets
/// and applies the curved links.
template <class Op = NoOp>
void finish_pass(Lattice& lat, const StepContext& ctx, const Op& op = {}) {
  if (lat.storage_mode() == StorageMode::AA) {
    finish_aa(lat, lat.cell_class(), ctx, op);
  } else {
    lat.swap_buffers();
  }
  impose_inlets(lat);
  apply_curved_bounce(lat);
}

}  // namespace gc::lbm::detail
