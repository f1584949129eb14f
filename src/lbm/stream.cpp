#include "lbm/stream.hpp"

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

void pull_cell(const Lattice& lat, i64 cell, Real f[Q]) {
  const Int3 p = lat.coords(cell);
  for (int i = 0; i < Q; ++i) f[i] = pull_value(lat, p, i);
}

}  // namespace detail

namespace {

/// DoubleBuffer and Sparse: streams the cells of box into the back
/// buffer. Bulk spans are branch-free shifted copies, the slow minority
/// walks the general pull_value path, and solid cells are zeroed where
/// they have storage. The compact layout needs the index map only for
/// each span's two base offsets (the pull sources of a bulk span, or of
/// any piece of one, form another contiguous run of fluid cells), so the
/// span loop stays a plain copy in both layouts.
template <bool kCompact>
void pull_region(Lattice& lat, const CellClass& cc,
                 const detail::PlaneAddr<kCompact>& a, const CellBox& box,
                 const StepContext& ctx) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = detail::pull_offset(lat.dim(), i);
  detail::for_z_chunks(lat, ctx, box, [&](int z0, int z1) {
    detail::for_box_spans(lat, cc, box, z0, z1, [&](const CellSpan& sp) {
      const i64 out0 = a.at(sp.begin);
      for (int i = 0; i < Q; ++i) {
        Real* GC_RESTRICT out = a.wr[i] + out0;
        const Real* GC_RESTRICT in = a.rd[i] + a.at(sp.begin + shift[i]);
        for (i32 k = 0; k < sp.len; ++k) out[k] = in[k];
      }
    });
    Real f[Q];
    detail::for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1,
                          [&](i64, i64 cell) {
                            detail::pull_cell(lat, cell, f);
                            a.store(cell, f);
                          });
    detail::for_box_cells(lat, cc.solid, cc.solid_z, box, z0, z1,
                          [&](i64, i64 cell) { a.zero_solid(cell); });
  });
}

/// AA: collects the pulled values of the box's slow cells into the fixup
/// scratch, at their position in CellClass::slow. A pure read of the
/// post-collide field through the accessors, which is exactly what the
/// double-buffered pull reads; the bulk streams in the flip.
void collect_region(Lattice& lat, const CellClass& cc, const CellBox& box,
                    const StepContext& ctx) {
  std::vector<Real>& fix = lat.aa_fix_scratch();
  fix.resize(cc.slow.size() * Q);
  detail::for_z_chunks(lat, ctx, box, [&](int z0, int z1) {
    detail::for_box_cells(lat, cc.slow, cc.slow_z, box, z0, z1,
                          [&](i64 k, i64 cell) {
                            detail::pull_cell(lat, cell, fix.data() + k * Q);
                          });
  });
}

/// Re-imposes the inlet equilibrium on inlet-flagged cells. The
/// uniform-inlet equilibrium is computed once outside the loop, and a
/// profiled inlet recomputes per cell into its own scratch so the two
/// cases never share (and clobber) one feq buffer.
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

/// AA, after the parity flip: scatters the regions' fixups through the
/// new mapping, in chunks on ctx.pool (slot ownership is a bijection, so
/// each cell writes its own slot group and chunks never overlap), and
/// zeroes the solid cells, matching the double-buffered pass value for
/// value.
void scatter_aa_fixups(Lattice& lat, const CellClass& cc,
                       const StepContext& ctx) {
  const std::vector<Real>& fix = lat.aa_fix_scratch();
  const i64 nslow = static_cast<i64>(cc.slow.size());
  GC_CHECK_MSG(static_cast<i64>(fix.size()) == nslow * Q,
               "finish_stream(AA) needs the region passes' fixups first");
  detail::for_chunks(ctx.pool, 0, nslow, ThreadPool::min_chunk_indices(256),
                     [&](i64 k0, i64 k1) {
                       for (i64 k = k0; k < k1; ++k) {
                         lat.scatter_cell(cc.slow[static_cast<std::size_t>(k)],
                                          fix.data() + k * Q);
                       }
                     });
  const Real zeros[Q] = {};
  for (const i64 c : cc.solid) lat.scatter_cell(c, zeros);
}

}  // namespace

void stream_region(Lattice& lat, const CellBox& box, const StepContext& ctx) {
  const CellClass& cc = lat.cell_class();  // build before dispatch
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      pull_region(lat, cc, detail::NaturalAddr::to_back(lat), box, ctx);
      return;
    case StorageMode::Sparse:
      pull_region(lat, cc, detail::CompactAddr::to_back(lat), box, ctx);
      return;
    case StorageMode::AA:
      collect_region(lat, cc, box, ctx);
      return;
  }
}

void finish_stream(Lattice& lat, const StepContext& ctx) {
  const CellClass& cc = lat.cell_class();
  lat.swap_buffers();  // AA: the parity flip, the zero-copy bulk stream
  if (lat.storage_mode() == StorageMode::AA) scatter_aa_fixups(lat, cc, ctx);
  impose_inlets(lat);
  apply_curved_bounce(lat);
}

void stream(Lattice& lat, const StepContext& ctx) {
  {
    obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
    stream_region(lat, CellBox{}, ctx);
  }
  obs::ScopedSpan span(ctx.trace, "finish", ctx.rank, "lbm");
  finish_stream(lat, ctx);
}

}  // namespace gc::lbm
