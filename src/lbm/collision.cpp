// BGK with Guo forcing, written out in D3Q19 terms: the one BGK cell
// operator of the host kernels, the slow cells, LES and the simulated GPU's
// collide program. Opposite directions i and OPP[i] = i + 1 (i odd) are
// taken as a pair, whose link C[i] the code spells out
// (Collision.MatchesPerDirectionFormInDouble holds it to C and W). The
// moments sum each pair's sum and difference, and the pair's two
// equilibria share their even part and differ by their odd part, as do
// its two Guo source terms. No link-vector component multiplies a value,
// so no product by 0 is left for a compiler without -ffast-math to keep.
#include "lbm/collision.hpp"

#include "lbm/cell_pass.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

namespace {

/// BGK on L cells at once, f[i * L + l] holding f_i of lane l (the cell
/// operator layout of cell_pass.hpp); kForced adds Guo's source term for
/// the uniform body force `force`. Every lane runs the one-cell operations
/// in the one-cell order, so the result does not depend on L; the two lane
/// loops have a fixed trip count, so the compiler vectorizes them when
/// L > 1.
template <int L, bool kForced>
void bgk_pairs(Real* f, Real omega, Vec3 force) {
  Real rho[L], ux[L], uy[L], uz[L];
  const Vec3 half_force = force * Real(0.5);
  for (int l = 0; l < L; ++l) {  // vec: moments
    const auto fl = [f, l](int i) { return f[i * L + l]; };
    // Pair differences f_i - f_{i+1}, named by i: C[i] is the pair's link.
    const Real d1 = fl(1) - fl(2), d3 = fl(3) - fl(4), d5 = fl(5) - fl(6);
    const Real d7 = fl(7) - fl(8), d9 = fl(9) - fl(10);
    const Real d11 = fl(11) - fl(12), d13 = fl(13) - fl(14);
    const Real d15 = fl(15) - fl(16), d17 = fl(17) - fl(18);
    const Real r = fl(0) + (fl(1) + fl(2)) + (fl(3) + fl(4)) +
                   (fl(5) + fl(6)) + (fl(7) + fl(8)) + (fl(9) + fl(10)) +
                   (fl(11) + fl(12)) + (fl(13) + fl(14)) +
                   (fl(15) + fl(16)) + (fl(17) + fl(18));
    Real jx = d1 + d7 + d9 + d11 + d13;
    Real jy = d3 + d7 - d9 + d15 + d17;
    Real jz = d5 + d11 - d13 + d15 - d17;
    if constexpr (kForced) {
      // Guo forcing: velocity shifted by half the force impulse.
      jx += half_force.x;
      jy += half_force.y;
      jz += half_force.z;
    }
    const Real inv_rho = Real(1) / r;
    rho[l] = r;
    ux[l] = jx * inv_rho;
    uy[l] = jy * inv_rho;
    uz[l] = jz * inv_rho;
  }
  // Guo: F_i = (1 - omega/2) w_i [3(c_i - u) + 9(c_i.u) c_i] . F. With
  // p = (1 - omega/2) w, a pair shares p (9 (c.u)(c.F) - 3 u.F) and its two
  // directions differ by +-3 p (c.F).
  const Real fpref = kForced ? Real(1) - Real(0.5) * omega : Real(0);
  for (int l = 0; l < L; ++l) {  // vec: relax
    const Real x = ux[l], y = uy[l], z = uz[l];
    const Real even0 = Real(1) - Real(1.5) * (x * x + y * y + z * z);
    const Real uf3 =
        kForced ? Real(3) * (x * force.x + y * force.y + z * force.z) : 0;
    Real& f0 = f[l];
    f0 = f0 - omega * (f0 - W[0] * rho[l] * even0);
    if constexpr (kForced) f0 -= fpref * W[0] * uf3;
    // Relaxes pair (i, i + 1) of weight w, whose link has c.u = cu and
    // c.F = cf, toward s +- 3 w rho (c.u).
    const auto pair = [&](int i, Real w, Real cu, Real cf) {
      Real& fa = f[i * L + l];
      Real& fb = f[(i + 1) * L + l];
      const Real wr = w * rho[l];
      const Real s = wr * (even0 + Real(4.5) * cu * cu);
      const Real odd = Real(3) * wr * cu;
      Real a = fa - omega * (fa - (s + odd));
      Real b = fb - omega * (fb - (s - odd));
      if constexpr (kForced) {
        const Real p = fpref * w;
        const Real g_even = p * (cu * (Real(9) * cf) - uf3);
        const Real g_odd = Real(3) * p * cf;
        a += g_even + g_odd;
        b += g_even - g_odd;
      }
      fa = a;
      fb = b;
    };
    pair(1, W[1], x, force.x);
    pair(3, W[3], y, force.y);
    pair(5, W[5], z, force.z);
    pair(7, W[7], x + y, force.x + force.y);
    pair(9, W[9], x - y, force.x - force.y);
    pair(11, W[11], x + z, force.x + force.z);
    pair(13, W[13], x - z, force.x - force.z);
    pair(15, W[15], y + z, force.y + force.z);
    pair(17, W[17], y - z, force.y - force.z);
  }
}

/// BGK with Guo forcing on L cells at once: the forced test is made once
/// per call, outside the lane loops.
template <int L>
void bgk_lanes(Real* f, Real tau, Vec3 force) {
  const Real omega = Real(1) / tau;
  if (force.x != 0 || force.y != 0 || force.z != 0) {
    bgk_pairs<L, true>(f, omega, force);
  } else {
    bgk_pairs<L, false>(f, omega, force);
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
