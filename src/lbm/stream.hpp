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

/// Streams every cell from the current buffer into the back buffer,
/// applying face boundary conditions, half-way bounce-back at solids,
/// inlet equilibria and outflow copies; then swaps buffers and applies
/// curved-boundary (Bouzidi) corrections for registered links. Runs on
/// ctx.pool when set (z-slabs; the pull pattern has no write conflicts,
/// so this is bit-identical to serial) and emits "stream" (pull pass)
/// and "finish" (swap + inlet + curved corrections) spans on ctx.trace
/// when attached.
void stream(Lattice& lat, const StepContext& ctx = {});

/// Streams only the inner partition of `split` into the back buffer —
/// cells guaranteed not to read any ghost-margin texel — so it can run
/// while border messages are still in flight. No buffer swap, no
/// boundary finishing: always pair with stream_outer() afterwards.
/// stream_inner + stream_outer is bit-identical to stream(): the pull
/// pattern writes each cell exactly once, so phase order cannot change
/// any value.
void stream_inner(Lattice& lat, const InnerOuterClass& split);

/// Streams the outer partition (ghost margins plus the one-cell shell
/// inside them) after the ghost layers are written, then swaps buffers
/// and applies inlet re-imposition and curved-boundary corrections.
void stream_outer(Lattice& lat, const InnerOuterClass& split);

namespace detail {

/// Value pulled for direction i at cell position p, with all boundary
/// handling. Reads the *current* buffer; callers write the back buffer.
Real pull_value(const Lattice& lat, Int3 p, int i);

/// All 19 pulled values of one cell: pull_value in every direction.
void pull_cell(const Lattice& lat, i64 cell, Real f[Q]);

/// True when all 19 pull sources of p are in-bounds fluid cells — the fast
/// path where streaming is a plain shifted copy.
bool is_interior_fluid(const Lattice& lat, Int3 p);

}  // namespace detail
}  // namespace gc::lbm
