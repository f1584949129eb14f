// BGK (single-relaxation-time) collision, Section 4.1: a statistical
// redistribution of momentum toward equilibrium that conserves mass and
// momentum. Optional body force uses the Guo forcing scheme (needed by the
// thermal Boussinesq coupling and by channel-flow tests). The operator is
// written once, in explicit D3Q19 terms with opposite directions taken as
// pairs (collision.cpp); every pass below and collide_bgk_cell run it.
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct BgkParams {
  Real tau = Real(0.8);  ///< relaxation time; nu = (tau - 1/2)/3
  Vec3 force{};          ///< uniform body force density (Guo scheme)
};

/// Collides the fluid cells of `box` in place (current buffer); under AA
/// storage every non-solid cell of the box is advanced, inlet and outflow
/// cells copied through. Solid cells are not visited. Runs on ctx.pool
/// when set: z-chunks, bit-identical to serial, since collision is
/// cell-local. Emits no span; callers time it in their own "collide"
/// span.
///
/// `box` is the cells the caller owns, the whole lattice by default.
/// ParallelLbm passes a rank's owned cells, so the ghost layers, which
/// the exchange rewrites before anything reads them, are not collided.
/// Collision never overlaps the exchange: in the overlapped step it is
/// the stream region pass over the rank's inner box (stream_region) that
/// runs while border messages are in flight. Both passes clip to a box
/// the same way (cell_pass.hpp).
void collide_bgk(Lattice& lat, const BgkParams& p, const StepContext& ctx = {},
                 const CellBox& box = {});

/// Collides one cell given its 19 distribution values (in/out). Exposed so
/// the simulated-GPU fragment program, LES and the CPU kernels share one
/// definition — keeping the paths bit-identical: a lane tile computes each
/// lane exactly as this computes one cell.
void collide_bgk_cell(Real f[Q], Real tau, Vec3 force);

/// Fused stream+collide ("pull then collide"), the memory-traffic
/// optimization of Massaioli & Amati cited in Section 4.4: the stream
/// region pass over the whole lattice plus the finish (stream.hpp), with
/// BGK as their cell operator. Under AA the finish flips, writes the rule
/// links (curved links' Bouzidi values included) and then collides the
/// whole lattice in place with the collide pass, which are the passes of
/// stream() then collide_bgk(); on Sparse, which has no curved links,
/// each fluid cell is collided right after its pull. So one fused step
/// equals stream() then collide_bgk() bit for bit, with the same boundary
/// handling. Runs on ctx.pool when set, bit-identical to serial, and
/// emits one "fused" span on ctx.trace when attached.
void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx = {});

}  // namespace gc::lbm
