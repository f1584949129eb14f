#include "lbm/collision.hpp"

#include "lbm/cell_pass.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

namespace {

/// The BGK relaxation of L cells whose moments are known; kForced adds
/// the Guo source term.
template <int L, bool kForced>
void bgk_relax(Real* f, const Real rho[L], const Real ux[L], const Real uy[L],
               const Real uz[L], const Real uu15[L], Real omega, Vec3 force) {
  const Real fpref = kForced ? (Real(1) - Real(0.5) * omega) : Real(0);
#pragma GCC unroll 19
  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    Real* fi = f + i * L;
    for (int l = 0; l < L; ++l) {  // vec: relax
      const Real cu = cx * ux[l] + cy * uy[l] + cz * uz[l];
      const Real feq = W[i] * rho[l] *
                       (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - uu15[l]);
      Real v = fi[l] - omega * (fi[l] - feq);
      if constexpr (kForced) {
        // Guo: F_i = (1 - 1/(2tau)) w_i [3(c - u) + 9(c.u)c] . F
        const Real tx = (cx - ux[l]) * Real(3) + cx * (Real(9) * cu);
        const Real ty = (cy - uy[l]) * Real(3) + cy * (Real(9) * cu);
        const Real tz = (cz - uz[l]) * Real(3) + cz * (Real(9) * cu);
        v += fpref * W[i] * (tx * force.x + ty * force.y + tz * force.z);
      }
      fi[l] = v;
    }
  }
}

/// BGK with Guo forcing on L cells at once, f[i * L + l] holding f_i of
/// lane l (the cell operator layout of cell_pass.hpp). Every lane runs
/// the same operations in the same order as one cell does, so the result
/// does not depend on L; the lane loops have a fixed trip count, so the
/// compiler vectorizes them when L > 1.
template <int L>
void bgk_lanes(Real* f, Real tau, Vec3 force) {
  Real rho[L], ux[L], uy[L], uz[L], uu15[L];
  for (int l = 0; l < L; ++l) rho[l] = ux[l] = uy[l] = uz[l] = 0;
#pragma GCC unroll 19
  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    const Real* fi = f + i * L;
    for (int l = 0; l < L; ++l) {  // vec: moments
      rho[l] += fi[l];
      ux[l] += fi[l] * cx;
      uy[l] += fi[l] * cy;
      uz[l] += fi[l] * cz;
    }
  }
  const Vec3 half_force = force * Real(0.5);
  for (int l = 0; l < L; ++l) {
    const Real inv_rho = Real(1) / rho[l];
    // Guo forcing: velocity shifted by half the force impulse.
    ux[l] = (ux[l] + half_force.x) * inv_rho;
    uy[l] = (uy[l] + half_force.y) * inv_rho;
    uz[l] = (uz[l] + half_force.z) * inv_rho;
    uu15[l] = Real(1.5) * (ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l]);
  }
  const Real omega = Real(1) / tau;
  if (force.x != 0 || force.y != 0 || force.z != 0) {
    bgk_relax<L, true>(f, rho, ux, uy, uz, uu15, omega, force);
  } else {
    bgk_relax<L, false>(f, rho, ux, uy, uz, uu15, omega, force);
  }
}

}  // namespace

void collide_bgk_cell(Real f[Q], Real tau, Vec3 force) {
  bgk_lanes<1>(f, tau, force);
}

namespace {

/// BGK with the uniform Guo force p.force, as a cell operator of any lane
/// count.
auto bgk_op(const BgkParams& p) {
  return [&p]<int L>(Real* f, detail::Lanes<L>) {
    bgk_lanes<L>(f, p.tau, p.force);
  };
}

}  // namespace

void collide_bgk(Lattice& lat, const BgkParams& p, const StepContext& ctx,
                 const CellBox& box) {
  detail::collide_pass(lat, bgk_op(p), ctx, box);
}

void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx) {
  obs::ScopedSpan span(ctx.trace, "fused", ctx.rank, "lbm");
  const auto op = bgk_op(p);
  detail::stream_pass(lat, CellBox{}, ctx, op);
  detail::finish_pass(lat, ctx, op);
}

}  // namespace gc::lbm
