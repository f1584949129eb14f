#include "lbm/mrt.hpp"

#include <cmath>

#include "lbm/cell_pass.hpp"

namespace gc::lbm {

namespace {

/// Row polynomials of the standard D3Q19 moment basis, evaluated at a link
/// vector c. Order: rho, e, eps, jx, qx, jy, qy, jz, qz, 3pxx, 3pixx,
/// pww, piww, pxy, pyz, pxz, mx, my, mz.
double moment_row(int row, Int3 c) {
  const double cx = c.x, cy = c.y, cz = c.z;
  const double c2 = cx * cx + cy * cy + cz * cz;
  switch (row) {
    case 0: return 1.0;
    case 1: return 19.0 * c2 - 30.0;
    case 2: return (21.0 * c2 * c2 - 53.0 * c2 + 24.0) / 2.0;
    case 3: return cx;
    case 4: return (5.0 * c2 - 9.0) * cx;
    case 5: return cy;
    case 6: return (5.0 * c2 - 9.0) * cy;
    case 7: return cz;
    case 8: return (5.0 * c2 - 9.0) * cz;
    case 9: return 3.0 * cx * cx - c2;
    case 10: return (3.0 * c2 - 5.0) * (3.0 * cx * cx - c2);
    case 11: return cy * cy - cz * cz;
    case 12: return (3.0 * c2 - 5.0) * (cy * cy - cz * cz);
    case 13: return cx * cy;
    case 14: return cy * cz;
    case 15: return cx * cz;
    case 16: return (cy * cy - cz * cz) * cx;
    case 17: return (cz * cz - cx * cx) * cy;
    case 18: return (cx * cx - cy * cy) * cz;
    default: GC_CHECK(false); return 0.0;
  }
}

}  // namespace

const MomentBasis& MomentBasis::instance() {
  static const MomentBasis basis = [] {
    MomentBasis b{};
    for (int r = 0; r < Q; ++r) {
      double norm2 = 0.0;
      for (int i = 0; i < Q; ++i) {
        b.M[r][i] = moment_row(r, C[i]);
        norm2 += b.M[r][i] * b.M[r][i];
      }
      b.row_norm2[r] = norm2;
    }
    // Orthogonal rows: Minv = M^T diag(1/||row||^2).
    for (int i = 0; i < Q; ++i) {
      for (int r = 0; r < Q; ++r) {
        b.Minv[i][r] = b.M[r][i] / b.row_norm2[r];
      }
    }
    return b;
  }();
  return basis;
}

MrtParams MrtParams::standard(Real tau) {
  MrtParams p;
  p.s.fill(Real(0));
  p.s[1] = Real(1.19);   // e
  p.s[2] = Real(1.4);    // eps
  p.s[4] = Real(1.2);    // qx
  p.s[6] = Real(1.2);    // qy
  p.s[8] = Real(1.2);    // qz
  p.s[10] = Real(1.4);   // pi_xx
  p.s[12] = Real(1.4);   // pi_ww
  p.s[16] = Real(1.98);  // mx
  p.s[17] = Real(1.98);  // my
  p.s[18] = Real(1.98);  // mz
  p.set_viscosity_rates(tau);
  return p;
}

MrtParams MrtParams::bgk_equivalent(Real tau) {
  MrtParams p;
  p.s.fill(Real(1) / tau);
  p.s[0] = p.s[3] = p.s[5] = p.s[7] = Real(1) / tau;  // harmless: m==m_eq
  return p;
}

void MrtParams::set_viscosity_rates(Real tau) {
  const Real s_nu = Real(1) / tau;
  s[9] = s[11] = s[13] = s[14] = s[15] = s_nu;
}

void collide_mrt_cell(Real f[Q], const MrtParams& p) {
  const MomentBasis& b = MomentBasis::instance();

  double m[Q];
  for (int r = 0; r < Q; ++r) {
    double acc = 0.0;
    for (int i = 0; i < Q; ++i) acc += b.M[r][i] * f[i];
    m[r] = acc;
  }

  const double rho = m[0];
  const double j[3] = {m[3], m[5], m[7]};

  // Moments of the BGK equilibrium at (rho, u = j/rho).
  Real feq[Q];
  const Real inv_rho = Real(1) / Real(rho);
  equilibrium_all(Real(rho),
                  Vec3(Real(j[0]) * inv_rho, Real(j[1]) * inv_rho,
                       Real(j[2]) * inv_rho),
                  feq);
  double m_eq[Q];
  for (int r = 0; r < Q; ++r) {
    double acc = 0.0;
    for (int i = 0; i < Q; ++i) acc += b.M[r][i] * feq[i];
    m_eq[r] = acc;
  }

  for (int r = 0; r < Q; ++r) {
    m[r] -= p.s[r] * (m[r] - m_eq[r]);
  }

  for (int i = 0; i < Q; ++i) {
    double acc = 0.0;
    for (int r = 0; r < Q; ++r) acc += b.Minv[i][r] * m[r];
    f[i] = Real(acc);
  }
}

void collide_mrt(Lattice& lat, const MrtParams& p, const StepContext& ctx,
                 const CellBox& box) {
  detail::collide_pass(
      lat, [&p](Real* f, detail::Lanes<1>) { collide_mrt_cell(f, p); }, ctx,
      box);
}

}  // namespace gc::lbm
