// Streaming (propagation) step, Section 4.1: particles move synchronously
// along their links in discrete time. Implemented as a "pull": the new
// f_i at x is fetched from x - c_i in the previous buffer — exactly the
// gather operation the paper's fragment programs perform on the GPU
// (Section 4.2). The simulated GPU has its own copy of this rule
// (gpulbm::StreamProgram::pull); the FaceBcSweep cases in test_gpulbm.cpp
// hold the two bit-identical for every face BC on every axis.
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

/// Streams the cells of `box` (clipped to the lattice) from the current
/// buffer, with all boundary handling, on ctx.pool when set (z-chunks;
/// the pull pattern has no write conflicts, so pooled equals serial bit
/// for bit). DoubleBuffer and Sparse write the pulled values into the
/// back buffer (zeros at solids). AA only reads: it collects the pulled
/// values of the box's slow cells into the lattice's fixup scratch, at
/// their position in CellClass::slow; its bulk streams in the flip. No
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

/// Value pulled for direction i at cell position p, with all boundary
/// handling. Reads the *current* buffer; callers write the back buffer.
Real pull_value(const Lattice& lat, Int3 p, int i);

/// All 19 pulled values of one cell: pull_value in every direction.
void pull_cell(const Lattice& lat, i64 cell, Real f[Q]);

}  // namespace detail
}  // namespace gc::lbm
