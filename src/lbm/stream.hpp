// Streaming (propagation) step, Section 4.1: particles move synchronously
// along their links in discrete time. Implemented as a "pull": the new
// f_i at x is fetched from x - c_i in the previous buffer — exactly the
// gather operation the paper's fragment programs perform on the GPU
// (Section 4.2). The boundary rule of that pull is written once
// (detail::pull, over a source adapter): the host pulls from a Lattice,
// the simulated GPU's StreamProgram from its bound textures, and the
// FaceBcSweep cases in test_gpulbm.cpp hold the two bit-identical for
// every face BC on every axis.
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

/// Streams the cells of `box` (clipped to the lattice) from the current
/// buffer, with all boundary handling, on ctx.pool when set (the pull
/// pattern has no write conflicts, so pooled equals serial bit for bit).
/// DoubleBuffer and Sparse write the pulled values into the back buffer
/// (zeros at solids), in z-chunks. AA only reads: it collects the pulled
/// values of the box's slow cells into the lattice's fixup scratch, at
/// their position in CellClass::slow, in the same z-chunks; its bulk,
/// which includes the cells on periodic faces, streams in the flip. No
/// span. A cell pulls only from cells one hop away (or across a periodic
/// face), so the overlapped step streams the box of cells that read no
/// ghost while border messages are in flight (core::LocalDomain).
void stream_region(Lattice& lat, const CellBox& box,
                   const StepContext& ctx = {});

/// Completes a stream once region passes have covered every cell exactly
/// once (any partition of the lattice into boxes, in any order; flags
/// must not change in between): swaps the buffers (DoubleBuffer, Sparse)
/// or flips the AA parity, scatters the AA fixups and zeroes solids
/// through the new mapping, then re-imposes inlet equilibria and applies
/// curved-boundary (Bouzidi) corrections. The AA scatter runs on
/// ctx.pool when set. No span.
void finish_stream(Lattice& lat, const StepContext& ctx = {});

/// One stream of the whole lattice: stream_region over every cell, then
/// finish_stream. Emits "stream" (the region pass) and "finish" spans on
/// ctx.trace when attached.
void stream(Lattice& lat, const StepContext& ctx = {});

namespace detail {

/// Wraps src along every periodic axis of the source s; returns the
/// first non-periodic face src still lies beyond, or -1 when it is in
/// bounds.
template <class Src>
int resolve_periodic(const Src& s, Int3& src) {
  const Int3 d = s.dim();
  int face = -1;
  for (int a = 0; a < 3; ++a) {
    if (src[a] < 0) {
      if (s.face_bc(2 * a) == FaceBc::Periodic) {
        src[a] += d[a];
      } else if (face < 0) {
        face = 2 * a;  // FACE_{X,Y,Z}MIN
      }
    } else if (src[a] >= d[a]) {
      if (s.face_bc(2 * a + 1) == FaceBc::Periodic) {
        src[a] -= d[a];
      } else if (face < 0) {
        face = 2 * a + 1;  // FACE_{X,Y,Z}MAX
      }
    }
  }
  return face;
}

/// The pull rule: the value streamed into direction i at cell p, with
/// every face BC and cell flag handled. The source adapter s provides
///   Int3 dim(), FaceBc face_bc(int face),
///   CellType flag(Int3 src, Int3 hop), Real f(int i, Int3 src, Int3 hop)
///     the flag and f_i of in-bounds cell src, reached from p by the
///     unwrapped link offset hop ({0,0,0} for p itself),
///   Real inlet_eq(int i, Int3 cell)
///     the inlet equilibrium of direction i at cell.
/// Both adapters read sources in the order written here, so the GPU
/// issues the fetches the host makes.
template <class Src>
Real pull(const Src& s, Int3 p, int i) {
  constexpr Int3 kHere{0, 0, 0};
  const Int3 hop = C[OPP[i]];  // x - c_i
  Int3 src = p + hop;
  const int face = resolve_periodic(s, src);
  if (face >= 0) {
    // The pull crosses a non-periodic domain face.
    switch (s.face_bc(face)) {
      case FaceBc::Inlet:
        return s.inlet_eq(i, p);
      case FaceBc::Wall:
        return s.f(OPP[i], p, kHere);  // half-way bounce-back
      case FaceBc::Outflow:
        return s.f(i, p, kHere);  // zero gradient
      case FaceBc::FreeSlip: {
        // Specular reflection: pull the mirrored direction from the same
        // boundary row — only the tangential offset applies.
        const int axis = face / 2;
        const int m = mirror_direction(i, axis);
        Int3 mhop = C[OPP[m]];
        mhop[axis] = 0;
        Int3 srcm = p + mhop;
        if (resolve_periodic(s, srcm) < 0 &&
            s.flag(srcm, mhop) != CellType::Solid) {
          return s.f(m, srcm, mhop);
        }
        return s.f(OPP[i], p, kHere);  // corner fallback: bounce-back
      }
      case FaceBc::Periodic:
        break;  // unreachable: periodic was resolved above
    }
    return s.f(OPP[i], p, kHere);
  }

  switch (s.flag(src, hop)) {
    case CellType::Solid:
      return s.f(OPP[i], p, kHere);  // half-way bounce-back at obstacle
    case CellType::Inlet:
      return s.inlet_eq(i, src);
    case CellType::Outflow:
      return s.f(i, p, kHere);
    case CellType::Fluid:
      break;
  }
  return s.f(i, src, hop);
}

/// The pull rule's source adapter on a lattice's current buffer. The
/// classification and the bulk span pass wrap a cell's pulls through it
/// too, so a bulk cell's sources are the ones the pull rule reads.
struct LatticeSource {
  const Lattice& lat;
  Int3 dim() const { return lat.dim(); }
  FaceBc face_bc(int face) const {
    return lat.face_bc(static_cast<Face>(face));
  }
  CellType flag(Int3 src, Int3) const { return lat.flag(src); }
  Real f(int i, Int3 src, Int3) const { return lat.f(i, src); }
  Real inlet_eq(int i, Int3 cell) const {
    return equilibrium(i, lat.inlet_density(), lat.inlet_velocity_at(cell));
  }
};

/// Value pulled for direction i at cell position p: the pull rule on the
/// lattice's *current* buffer; callers write the back buffer.
Real pull_value(const Lattice& lat, Int3 p, int i);

/// All 19 pulled values of one cell: pull_value in every direction.
void pull_cell(const Lattice& lat, i64 cell, Real f[Q]);

/// Re-imposes the inlet equilibrium on inlet-flagged cells, through the
/// current mapping.
void impose_inlets(Lattice& lat);

}  // namespace detail
}  // namespace gc::lbm
