// BGK (single-relaxation-time) collision, Section 4.1: a statistical
// redistribution of momentum toward equilibrium that conserves mass and
// momentum. Optional body force uses the Guo forcing scheme (needed by the
// thermal Boussinesq coupling and by channel-flow tests).
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct BgkParams {
  Real tau = Real(0.8);  ///< relaxation time; nu = (tau - 1/2)/3
  Vec3 force{};          ///< uniform body force density (Guo scheme)
};

/// Collides the fluid cells of `box` in place (current buffer); under AA
/// storage every cell of the box is advanced, non-fluid ones copied
/// through. Runs on ctx.pool when set: z-chunks, bit-identical to
/// serial, since collision is cell-local. Emits no span; callers time it
/// in their own "collide" span.
///
/// `box` is the cells the caller owns, the whole lattice by default.
/// ParallelLbm passes a rank's owned cells, so the ghost layers, which
/// the exchange rewrites before anything reads them, are not collided.
/// Collision never overlaps the exchange: in the overlapped step it is
/// the inner cells' streaming (stream_inner) that runs while border
/// messages are in flight.
void collide_bgk(Lattice& lat, const BgkParams& p, const StepContext& ctx = {},
                 const CellBox& box = {});

/// Collides one cell given its 19 distribution values (in/out). Exposed so
/// the simulated-GPU fragment program and the CPU kernel share one
/// definition — keeping the two paths bit-identical.
void collide_bgk_cell(Real f[Q], Real tau, Vec3 force);

/// Fused stream+collide ("pull then collide"), the memory-traffic
/// optimization of Massaioli & Amati cited in Section 4.4. Handles the same
/// boundary conditions as the separate passes. Swaps buffers itself. Runs
/// on ctx.pool when set (z-slabs pull+collide concurrently; the pull
/// pattern has no write conflicts, so this is bit-identical to serial) and
/// emits a "fused" span on ctx.trace when attached.
void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx = {});

}  // namespace gc::lbm
