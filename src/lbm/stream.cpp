#include "lbm/stream.hpp"

#include <span>

#include "lbm/boundary.hpp"
#include "lbm/cell_pass.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {
namespace detail {

namespace {

/// Wraps src along every periodic axis; returns false if src remains out of
/// bounds on some non-periodic axis (the crossed face index goes to *face).
bool resolve_periodic(const Lattice& lat, Int3& src, int* face) {
  const Int3 d = lat.dim();
  *face = -1;
  for (int a = 0; a < 3; ++a) {
    const int lo_face = 2 * a;      // FACE_{X,Y,Z}MIN
    const int hi_face = 2 * a + 1;  // FACE_{X,Y,Z}MAX
    if (src[a] < 0) {
      if (lat.face_bc(static_cast<Face>(lo_face)) == FaceBc::Periodic) {
        src[a] += d[a];
      } else if (*face < 0) {
        *face = lo_face;
      }
    } else if (src[a] >= d[a]) {
      if (lat.face_bc(static_cast<Face>(hi_face)) == FaceBc::Periodic) {
        src[a] -= d[a];
      } else if (*face < 0) {
        *face = hi_face;
      }
    }
  }
  return *face < 0;
}

}  // namespace

Real pull_value(const Lattice& lat, Int3 p, int i) {
  Int3 src = p - C[i];
  int face = -1;
  if (!resolve_periodic(lat, src, &face)) {
    // The pull crosses a non-periodic domain face.
    const FaceBc bc = lat.face_bc(static_cast<Face>(face));
    switch (bc) {
      case FaceBc::Inlet:
        return equilibrium(i, lat.inlet_density(), lat.inlet_velocity_at(p));
      case FaceBc::Wall:
        return lat.f(OPP[i], p);  // half-way bounce-back
      case FaceBc::Outflow:
        return lat.f(i, p);  // zero gradient
      case FaceBc::FreeSlip: {
        // Specular reflection: pull the mirrored direction from the same
        // boundary row — only the tangential offset applies.
        const int axis = face / 2;
        const int m = mirror_direction(i, axis);
        Int3 cm = C[m];
        cm[axis] = 0;
        Int3 srcm = p - cm;
        int face2 = -1;
        if (resolve_periodic(lat, srcm, &face2) &&
            lat.flag(srcm) != CellType::Solid) {
          return lat.f(m, srcm);
        }
        return lat.f(OPP[i], p);  // corner fallback: bounce-back
      }
      case FaceBc::Periodic:
        break;  // unreachable: periodic was resolved above
    }
    return lat.f(OPP[i], p);
  }

  switch (lat.flag(src)) {
    case CellType::Solid:
      return lat.f(OPP[i], p);  // half-way bounce-back at obstacle
    case CellType::Inlet:
      return equilibrium(i, lat.inlet_density(), lat.inlet_velocity_at(src));
    case CellType::Outflow:
      return lat.f(i, p);
    case CellType::Fluid:
      break;
  }
  return lat.f(i, src);
}

bool is_interior_fluid(const Lattice& lat, Int3 p) {
  const Int3 d = lat.dim();
  if (p.x < 1 || p.y < 1 || p.z < 1 || p.x >= d.x - 1 || p.y >= d.y - 1 ||
      p.z >= d.z - 1) {
    return false;
  }
  if (lat.flag(p) != CellType::Fluid) return false;
  for (int i = 1; i < Q; ++i) {
    if (lat.flag(p - C[i]) != CellType::Fluid) return false;
  }
  return true;
}

void pull_cell(const Lattice& lat, i64 cell, Real f[Q]) {
  const Int3 p = lat.coords(cell);
  for (int i = 0; i < Q; ++i) f[i] = pull_value(lat, p, i);
}

}  // namespace detail

namespace {

/// Streams an explicit cell selection from the current into the back
/// buffer: bulk spans are branch-free shifted copies, the slow minority
/// walks the general pull_value path, and solid cells are zeroed where
/// they have storage. The compact layout needs the index map only for
/// each span's two base offsets (a bulk span's pull sources form another
/// contiguous run of fluid cells), so the span loop stays a plain copy
/// in both layouts. The unit both the z-sliced full-lattice pass and the
/// inner/outer partitioned passes are built on.
template <bool kCompact>
void stream_cells(const Lattice& lat, const detail::PlaneAddr<kCompact>& a,
                  std::span<const CellSpan> spans, std::span<const i64> slow,
                  std::span<const i64> solid) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = detail::pull_offset(lat.dim(), i);
  a.zero_solids(solid);

  for (const CellSpan& sp : spans) {
    const i64 out0 = a.at(sp.begin);
    for (int i = 0; i < Q; ++i) {
      Real* GC_RESTRICT out = a.wr[i] + out0;
      const Real* GC_RESTRICT in = a.rd[i] + a.at(sp.begin + shift[i]);
      for (i32 k = 0; k < sp.len; ++k) out[k] = in[k];
    }
  }

  Real f[Q];
  for (const i64 cell : slow) {
    detail::pull_cell(lat, cell, f);
    a.store(cell, f);
  }
}

/// Re-imposes the inlet equilibrium on inlet-flagged cells (the tail of
/// every streaming pass, both storage modes). The uniform-inlet
/// equilibrium is computed once outside the loop, and a profiled inlet
/// recomputes per cell into its own scratch so the two cases never share
/// (and clobber) one feq buffer.
void impose_inlets(Lattice& lat) {
  const CellClass& cc = lat.cell_class();
  if (cc.inlet.empty()) return;
  if (lat.has_inlet_profile()) {
    Real feq[Q];
    for (const i64 c : cc.inlet) {
      equilibrium_all(lat.inlet_density(),
                      lat.inlet_velocity_at(lat.coords(c)), feq);
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  } else {
    Real feq[Q];
    equilibrium_all(lat.inlet_density(), lat.inlet_velocity(), feq);
    for (const i64 c : cc.inlet) {
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  }
}

/// Buffer swap + inlet re-imposition + curved-boundary corrections
/// (double-buffered mode).
void finish_stream(Lattice& lat) {
  lat.swap_buffers();
  impose_inlets(lat);
  apply_curved_bounce(lat);
}

// ---- AA-pattern streaming -------------------------------------------
// The bulk stream is the parity flip inside lat.swap_buffers(): the flip
// shifts slot ownership by one lattice hop, so after it every bulk
// cell's logical value already equals the periodic pull from its
// upwind neighbor — zero bytes moved. Only the classification's slow
// cells need real work: their 19 pulled values are computed BEFORE the
// flip (reading the post-collide field through the accessors, exactly
// what the double-buffered pull reads) and scattered AFTER the flip
// through the new mapping. Solid cells are zeroed and inlet cells
// re-imposed, matching the double-buffered pass value-for-value.
//
// Thread-safety mirrors the double-buffered pass: the collect phase is
// read-only, and the scatter/zero phase writes each cell's own slot
// group (slot ownership is a bijection), so chunks of the slow/solid
// lists never overlap.

void aa_collect_fixups(const Lattice& lat, std::span<const i64> cells,
                       Real* out) {
  for (const i64 c : cells) {
    detail::pull_cell(lat, c, out);
    out += Q;
  }
}

void aa_scatter_fixups(Lattice& lat, std::span<const i64> cells,
                       const Real* vals) {
  for (const i64 c : cells) {
    lat.scatter_cell(c, vals);
    vals += Q;
  }
}

void aa_zero_solids(Lattice& lat, std::span<const i64> cells) {
  const Real zeros[Q] = {};
  for (const i64 c : cells) lat.scatter_cell(c, zeros);
}

void check_aa_streamable(const Lattice& lat) {
  GC_CHECK_MSG(lat.curved_links().empty(),
               "AA storage does not support curved boundary links");
}

void aa_stream(Lattice& lat, ThreadPool* pool) {
  check_aa_streamable(lat);
  const CellClass& cc = lat.cell_class();  // build before dispatch
  const std::span<const i64> slow(cc.slow);
  auto& fix = lat.aa_fix_scratch();
  fix.resize(slow.size() * Q);
  const i64 min_chunk = ThreadPool::min_chunk_indices(256);
  auto chunk = [&slow](i64 k0, i64 k1) {
    return slow.subspan(static_cast<std::size_t>(k0),
                        static_cast<std::size_t>(k1 - k0));
  };

  detail::for_chunks(pool, 0, static_cast<i64>(slow.size()), min_chunk,
                     [&](i64 k0, i64 k1) {
                       aa_collect_fixups(lat, chunk(k0, k1),
                                         fix.data() + k0 * Q);
                     });
  lat.swap_buffers();  // the zero-copy bulk stream: flip parity
  detail::for_chunks(pool, 0, static_cast<i64>(slow.size()), min_chunk,
                     [&](i64 k0, i64 k1) {
                       aa_scatter_fixups(lat, chunk(k0, k1),
                                         fix.data() + k0 * Q);
                     });
  aa_zero_solids(lat, cc.solid);
  impose_inlets(lat);
}

/// Collects the inner fixups only — no flip, no writes. Inner cells
/// never pull from ghost layers, so this is safe to run while border
/// messages are still in flight; aa_stream_outer completes the step.
void aa_stream_inner(Lattice& lat, const InnerOuterClass& split) {
  auto& pend = lat.aa_pending_scratch();
  pend.resize(split.inner_slow.size() * Q);
  aa_collect_fixups(lat, split.inner_slow, pend.data());
}

void aa_stream_outer(Lattice& lat, const InnerOuterClass& split) {
  check_aa_streamable(lat);
  auto& pend = lat.aa_pending_scratch();
  auto& fix = lat.aa_fix_scratch();
  GC_CHECK_MSG(pend.size() == split.inner_slow.size() * Q,
               "stream_outer(AA) requires a matching stream_inner first");
  fix.resize(split.outer_slow.size() * Q);
  aa_collect_fixups(lat, split.outer_slow, fix.data());
  lat.swap_buffers();
  aa_scatter_fixups(lat, split.inner_slow, pend.data());
  aa_scatter_fixups(lat, split.outer_slow, fix.data());
  aa_zero_solids(lat, split.inner_solid);
  aa_zero_solids(lat, split.outer_solid);
  impose_inlets(lat);
}

/// Streams the z-slices of the whole lattice on ctx.pool, then finishes
/// the step (swap, inlets, curved corrections).
template <bool kCompact>
void stream_all(Lattice& lat, const detail::PlaneAddr<kCompact>& a,
                const StepContext& ctx) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  {
    obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
    detail::for_z_chunks(lat, ctx, 0, lat.dim().z, [&](int z0, int z1) {
      stream_cells(lat, a, detail::z_slice(cc.spans, cc.span_z, z0, z1),
                   detail::z_slice(cc.slow, cc.slow_z, z0, z1),
                   detail::z_slice(cc.solid, cc.solid_z, z0, z1));
    });
  }
  obs::ScopedSpan span(ctx.trace, "finish", ctx.rank, "lbm");
  finish_stream(lat);
}

}  // namespace

void stream(Lattice& lat, const StepContext& ctx) {
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      stream_all(lat, detail::NaturalAddr::to_back(lat), ctx);
      return;
    case StorageMode::Sparse:
      stream_all(lat, detail::CompactAddr::to_back(lat), ctx);
      return;
    case StorageMode::AA: {
      obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
      aa_stream(lat, ctx.pool);
      return;
    }
  }
}

void stream_inner(Lattice& lat, const InnerOuterClass& split) {
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      stream_cells(lat, detail::NaturalAddr::to_back(lat), split.inner_spans,
                   split.inner_slow, split.inner_solid);
      return;
    case StorageMode::Sparse:
      stream_cells(lat, detail::CompactAddr::to_back(lat), split.inner_spans,
                   split.inner_slow, split.inner_solid);
      return;
    case StorageMode::AA:
      aa_stream_inner(lat, split);
      return;
  }
}

void stream_outer(Lattice& lat, const InnerOuterClass& split) {
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      stream_cells(lat, detail::NaturalAddr::to_back(lat), split.outer_spans,
                   split.outer_slow, split.outer_solid);
      break;
    case StorageMode::Sparse:
      stream_cells(lat, detail::CompactAddr::to_back(lat), split.outer_spans,
                   split.outer_slow, split.outer_solid);
      break;
    case StorageMode::AA:
      aa_stream_outer(lat, split);
      return;
  }
  finish_stream(lat);
}

}  // namespace gc::lbm
