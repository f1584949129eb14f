#include "lbm/les.hpp"

#include <cmath>

#include "lbm/cell_pass.hpp"
#include "lbm/collision.hpp"

namespace gc::lbm {

Real smagorinsky_tau(const Real f[Q], const SmagorinskyParams& p) {
  Real rho = 0;
  Vec3 mom{};
  for (int i = 0; i < Q; ++i) {
    rho += f[i];
    mom.x += f[i] * Real(C[i].x);
    mom.y += f[i] * Real(C[i].y);
    mom.z += f[i] * Real(C[i].z);
  }
  if (rho <= Real(0)) return p.tau0;
  const Vec3 u = mom / rho;

  Real feq[Q];
  equilibrium_all(rho, u, feq);

  // Non-equilibrium second moment Pi_ab.
  double pi[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  for (int i = 0; i < Q; ++i) {
    const double dneq = double(f[i]) - feq[i];
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        pi[a][b] += dneq * C[i][a] * C[i][b];
      }
    }
  }
  double pipi = 0;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) pipi += pi[a][b] * pi[a][b];
  }
  const double q = std::sqrt(2.0 * pipi);

  const double tau0 = p.tau0;
  const double cs2 = double(p.cs) * p.cs;
  const double tau_eff =
      0.5 * (tau0 + std::sqrt(tau0 * tau0 +
                              18.0 * std::sqrt(2.0) * cs2 * q / double(rho)));
  return static_cast<Real>(tau_eff);
}

void collide_bgk_les(Lattice& lat, const SmagorinskyParams& p,
                     const StepContext& ctx, const CellBox& box) {
  detail::collide_pass(
      lat,
      [&p](Real f[Q], i64) {
        collide_bgk_cell(f, smagorinsky_tau(f, p), Vec3{});
      },
      ctx, box);
}

}  // namespace gc::lbm
