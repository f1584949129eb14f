// One cell pass for every lattice kernel. The paper runs one collision
// and one streaming fragment program per pass over every texel (§4.2);
// the host kernels are written the same way. A pass is an addressing
// policy (where a cell's 19 values live in the lattice's storage mode)
// times a cell operator (what happens to them), chunked over z on the
// step's pool and clipped to a CellBox. Bulk spans, and under AA the
// runs of slow cells too, run the operator over tiles of adjacent cells,
// the host's stand-in for the GPU's parallel pixel pipes. No pass visits
// a solid cell: the lattice's accessors read one as 0 in every storage
// mode, and no pull reads its storage. Streaming is a region pass plus a
// finish that take an optional cell operator: none for a plain stream,
// BGK for the fused stream+collide step, so the two share one streaming
// body. The public kernels in collision/mrt/les/stream.cpp instantiate
// these templates; outside src/lbm only the kernel tests include this
// header.
#pragma once

#include <algorithm>
#include <bit>
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
/// no wrap: exact for the cells of a bulk span whose pulls do not wrap.
inline i64 pull_offset(Int3 d, int i) {
  return -(C[i].x + i64(d.x) * (C[i].y + i64(d.y) * C[i].z));
}

/// The cells the first cell of bulk span sp pulls from, one per
/// direction; cell k of the span pulls from src[i] + k. An interior
/// span's pulls lie at the constant offsets `shift` (pull_offset); a span
/// whose pulls wrap crosses only periodic faces, wrapped as the pull rule
/// wraps them.
inline void span_sources(const Lattice& lat, const CellSpan& sp,
                         const i64 shift[Q], i64 src[Q]) {
  if (!sp.wraps) {
    for (int i = 0; i < Q; ++i) src[i] = sp.begin + shift[i];
    return;
  }
  const LatticeSource s{lat};
  const Int3 p = lat.coords(sp.begin);
  for (int i = 0; i < Q; ++i) {
    Int3 q = p - C[i];
    resolve_periodic(s, q);
    src[i] = lat.idx(q);
  }
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
        fn(CellSpan{s0, static_cast<i32>(s1 - s0), it->wraps});
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

/// The identity operator: a plain stream's operator (pulled values stay
/// as pulled), the one the AA collide runs on its inlet and outflow
/// cells, so their values move into the post-collide slots unchanged,
/// and the one the AA finish advances an un-collided lattice with.
struct NoOp {
  template <int L>
  void operator()(Real*, Lanes<L>) const {}
};

template <class Op>
inline constexpr bool kCollides = !std::is_same_v<Op, NoOp>;

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
//   rd[i], wr[i]  plane bases the pass reads and writes; a bulk cell c
//                 sits at at(c) (Sparse), and the cells of a bulk span at
//                 consecutive offsets from its first
//   span          the read and write pointers of a span's cells for a
//                 collide (in place)
//   load, store   the values of one slow cell (Sparse)

/// Compact addressing (Sparse): a cell's values sit at its compact id
/// from sparse_index in 19 planes. The compact cell list keeps dense
/// order, so a bulk span is contiguous. A collide reads and writes the
/// current buffer (in_place); a stream reads it and writes the back
/// buffer (to_back).
struct CompactAddr {
  const Lattice* lat;
  const Real* rd[Q];
  Real* wr[Q];

  static CompactAddr in_place(Lattice& l) { return CompactAddr(l, false); }
  static CompactAddr to_back(Lattice& l) { return CompactAddr(l, true); }

  i64 at(i64 cell) const { return lat->sparse_index(cell); }
  void span(const CellSpan& sp, const Real* in[Q], Real* out[Q]) const {
    const i64 m = at(sp.begin);
    for (int i = 0; i < Q; ++i) {
      in[i] = rd[i] + m;
      out[i] = wr[i] + m;
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

 private:
  CompactAddr(Lattice& l, bool back) : lat(&l) {
    for (int i = 0; i < Q; ++i) {
      rd[i] = l.sparse_plane_ptr(i);
      wr[i] = back ? l.sparse_back_plane_ptr(i) : l.sparse_plane_ptr(i);
    }
  }
};

/// AA addressing, for the advancing collide: cells read through the
/// current mapping and write the slots the post-collide mapping assigns,
/// so the next parity flip streams them for free. Interior spans use the
/// affine base pointers; a span on a lattice face (CellSpan::wraps) takes
/// its pointers from the mapping at its first cell. Slow cells are
/// advanced in runs through the same span pointers (collide_boundary).
/// Every non-solid cell must be advanced, not just fluid ones: the flip
/// streams the whole field. Each cell's read-slot set equals its
/// write-slot set, so cells can be advanced in any order and in parallel,
/// and so can whole tiles. A solid cell is never advanced: that moves
/// nothing of another cell's, and the values the flip carries through its
/// stale slots land only on rule links, which the finish overwrites, or
/// on solid cells.
struct AaAddr {
  Lattice* lat;
  const Real* rd[Q];
  Real* wr[Q];

  explicit AaAddr(Lattice& l) : lat(&l) {
    for (int i = 0; i < Q; ++i) {
      rd[i] = l.aa_bulk_read_ptr(i);
      wr[i] = l.aa_bulk_write_ptr(i);
    }
  }
  void span(const CellSpan& sp, const Real* in[Q], Real* out[Q]) const {
    if (sp.wraps) return lat->aa_span_ptrs(lat->coords(sp.begin), in, out);
    for (int i = 0; i < Q; ++i) {
      in[i] = rd[i] + sp.begin;
      out[i] = wr[i] + sp.begin;
    }
  }
};

// ---- the collide pass ------------------------------------------------------

/// Applies op to the bulk spans of slices [z0, z1) inside box. Under AA
/// at odd parity, rd[i] and wr[OPP[i]] are the same pointer.
template <class Addr, class Op>
void collide_spans(const Lattice& lat, const CellClass& cc, const Addr& a,
                   const Op& op, const CellBox& box, int z0, int z1) {
  for_box_spans(lat, cc, box, z0, z1, [&](const CellSpan& sp) {
    const Real* in[Q];
    Real* out[Q];
    a.span(sp, in, out);
    run_span(in, out, sp.len, op);
  });
}

/// Sparse: applies op to the slow fluid cells of slices [z0, z1) inside
/// box, one cell at a time through the policy's load/store.
template <class Op>
void collide_boundary(const Lattice& lat, const CellClass& cc,
                      const CompactAddr& a, const Op& op, const CellBox& box,
                      int z0, int z1) {
  Real f[Q];
  for_box_cells(lat, cc.fluid_slow, cc.fluid_slow_z, box, z0, z1,
                [&](i64, i64 c) {
                  a.load(c, f);
                  op(f, Lanes<1>{});
                  a.store(c, f);
                });
}

/// AA: advances the slow cells of slices [z0, z1) inside box through the
/// tile loop, in runs of consecutive cells of one row and one fluidness:
/// fluid runs take op, inlet and outflow runs NoOp, which moves their
/// values into the post-collide slots. The x-end cells are runs of their
/// own, so the mapping never wraps between the cells of a run, and a run
/// on a lattice face takes its pointers from the mapping at its first
/// cell, as a face span does.
template <class Op>
void collide_boundary(const Lattice& lat, const CellClass& cc, const AaAddr& a,
                      const Op& op, const CellBox& box, int z0, int z1) {
  if (cc.slow.empty()) return;
  const Int3 d = lat.dim();
  CellSpan run{0, 0, false};
  bool fluid = false;
  i64 row_end = 0;  // the run grows only by cells before this one
  auto flush = [&] {
    if (run.len == 0) return;
    const Real* in[Q];
    Real* out[Q];
    a.span(run, in, out);
    if (fluid) {
      run_span(in, out, run.len, op);
    } else {
      run_span(in, out, run.len, NoOp{});
    }
  };
  for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1, [&](i64, i64 c) {
    const bool f = lat.flag(c) == CellType::Fluid;
    if (c == run.begin + run.len && c < row_end && f == fluid) {
      ++run.len;
      return;
    }
    flush();
    const Int3 p = lat.coords(c);
    const bool x_end = p.x == 0 || p.x == d.x - 1;
    run = CellSpan{c, 1,
                   x_end || p.y == 0 || p.y == d.y - 1 || p.z == 0 ||
                       p.z == d.z - 1};
    fluid = f;
    row_end = x_end ? c : c - p.x + d.x - 1;
  });
  flush();
}

/// Collides the cells of box in place with op, chunked over z on
/// ctx.pool: the one storage-mode dispatch of every collide kernel. Only
/// fluid cells change value, and no solid cell is visited. Under AA every
/// non-solid cell in the box is advanced, slow cells in runs through the
/// tile loop like the bulk, and the lattice is marked collided; ghost
/// cells outside the box stay un-advanced, which is safe because unpack
/// rewrites them under the post-collide mapping before anything reads
/// them. Emits no span: the caller's "collide" span times the phase.
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

/// Sparse: streams the cells of box into the back buffer. A bulk cell's
/// pull is a copy from its source, so a bulk span reads plane pointers
/// shifted to its sources (span_sources): a plain copy without an
/// operator, the tile loop with one. The compact layout needs the index
/// map only for each span's base offsets (the pull sources of a bulk
/// span, or of any piece of one, form another contiguous run of fluid
/// cells). Slow cells take pull_slow_cell; solid cells are not written.
template <class Op>
void pull_region(Lattice& lat, const CellClass& cc, const CompactAddr& a,
                 const CellBox& box, const StepContext& ctx, const Op& op) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = pull_offset(lat.dim(), i);
  for_z_chunks(lat, ctx, box, [&](int z0, int z1) {
    for_box_spans(lat, cc, box, z0, z1, [&](const CellSpan& sp) {
      i64 src[Q];
      span_sources(lat, sp, shift, src);
      const i64 out0 = a.at(sp.begin);
      if constexpr (kCollides<Op>) {
        const Real* in[Q];
        Real* out[Q];
        for (int i = 0; i < Q; ++i) {
          in[i] = a.rd[i] + a.at(src[i]);
          out[i] = a.wr[i] + out0;
        }
        run_span(in, out, sp.len, op);
      } else {
        for (int i = 0; i < Q; ++i) {
          Real* GC_RESTRICT out = a.wr[i] + out0;
          const Real* GC_RESTRICT in = a.rd[i] + a.at(src[i]);
          for (i32 k = 0; k < sp.len; ++k) out[k] = in[k];
        }
      }
    });
    Real f[Q];
    for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1, [&](i64, i64 cell) {
      pull_slow_cell(lat, cell, op, f);
      a.store(cell, f);
    });
  });
}

/// AA: collects the pulls of the box's rule links (CellClass::RuleLinks)
/// into the fixup scratch, at each slow cell's offset. A pure read of the
/// post-collide field through the accessors, which is exactly what the
/// pull rule reads; every other link of every cell, the bulk and the
/// periodic faces included, streams in the flip.
inline void collect_region(Lattice& lat, const CellClass& cc,
                           const CellBox& box, const StepContext& ctx) {
  std::vector<Real>& fix = lat.aa_fix_scratch();
  fix.resize(static_cast<std::size_t>(cc.rule_links));
  if (cc.rule_links == 0) return;
  for_z_chunks(lat, ctx, box, [&](int z0, int z1) {
    for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1, [&](i64 k, i64 cell) {
      const CellClass::RuleLinks r = cc.slow_links[static_cast<std::size_t>(k)];
      const Int3 p = lat.coords(cell);
      Real* v = fix.data() + r.at;
      for (u32 m = r.mask; m != 0; m &= m - 1) {
        *v++ = pull_value(lat, p, std::countr_zero(m));
      }
    });
  });
}

/// The stream region pass (stream_region) over box, colliding every
/// fluid cell with op unless op is NoOp. Under AA the pass only collects
/// the rule links; the finish collides.
template <class Op = NoOp>
void stream_pass(Lattice& lat, const CellBox& box, const StepContext& ctx,
                 const Op& op = {}) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  switch (lat.storage_mode()) {
    case StorageMode::Sparse:
      pull_region(lat, cc, CompactAddr::to_back(lat), box, ctx, op);
      return;
    case StorageMode::AA:
      collect_region(lat, cc, box, ctx);
      return;
  }
}

/// AA: writes the curved links' Bouzidi values over their rule links'
/// pulls, advances an un-collided lattice with NoOp (so a stream with no
/// collide before it, or a lattice fresh from init entering the fused
/// cycle, streams as post-collision), flips the parity (the zero-copy
/// stream of every plain link), then writes the rule links through the
/// new mapping. Each cell writes its own slot group, so the writes run in
/// chunks on ctx.pool. With an operator the whole lattice is then
/// collided in place by the collide pass and ends collided, so the next
/// fused step flips first.
template <class Op>
void finish_aa(Lattice& lat, const CellClass& cc, const StepContext& ctx,
               const Op& op) {
  const std::vector<Real>& fix = lat.aa_fix_scratch();
  GC_CHECK_MSG(static_cast<i64>(fix.size()) == cc.rule_links,
               "finish_stream(AA) needs the region passes' fixups first");
  curved_link_fixups(lat, cc);
  if (!lat.aa_collided()) collide_pass(lat, NoOp{}, ctx, CellBox{});
  lat.swap_buffers();
  for_chunks(ctx.pool, 0, static_cast<i64>(cc.slow.size()),
             ThreadPool::min_chunk_indices(256),
             [&](i64 k0, i64 k1) {
               for (i64 k = k0; k < k1; ++k) {
                 const auto kk = static_cast<std::size_t>(k);
                 const CellClass::RuleLinks r = cc.slow_links[kk];
                 const Int3 p = lat.coords(cc.slow[kk]);
                 const Real* v = fix.data() + r.at;
                 for (u32 m = r.mask; m != 0; m &= m - 1) {
                   lat.set_f(std::countr_zero(m), p, *v++);
                 }
               }
             });
  if constexpr (kCollides<Op>) collide_pass(lat, op, ctx, CellBox{});
}

/// finish_stream, with op the operator of the region passes it
/// completes: finishes AA or swaps the Sparse buffers, then imposes the
/// inlets.
template <class Op = NoOp>
void finish_pass(Lattice& lat, const StepContext& ctx, const Op& op = {}) {
  if (lat.storage_mode() == StorageMode::AA) {
    finish_aa(lat, lat.cell_class(), ctx, op);
  } else {
    lat.swap_buffers();
  }
  impose_inlets(lat);
}

}  // namespace gc::lbm::detail
