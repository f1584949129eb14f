#include "lbm/macroscopic.hpp"

#include <algorithm>
#include <cmath>

namespace gc::lbm {

Moments cell_moments(const Lattice& lat, i64 cell) {
  Real rho = 0;
  Vec3 mom{};
  for (int i = 0; i < Q; ++i) {
    const Real fi = lat.f(i, cell);
    rho += fi;
    mom.x += fi * Real(C[i].x);
    mom.y += fi * Real(C[i].y);
    mom.z += fi * Real(C[i].z);
  }
  if (rho <= Real(0)) return {rho, Vec3{}};
  return {rho, mom / rho};
}

void compute_density_field(const Lattice& lat, std::vector<Real>& rho) {
  const i64 n = lat.num_cells();
  rho.assign(static_cast<std::size_t>(n), Real(0));
  for (i64 c = 0; c < n; ++c) {
    if (lat.flag(c) == CellType::Solid) continue;
    Real r = 0;
    for (int i = 0; i < Q; ++i) r += lat.f(i, c);
    rho[static_cast<std::size_t>(c)] = r;
  }
}

void compute_velocity_field(const Lattice& lat, std::vector<Vec3>& u,
                            const CellBox& box) {
  if (static_cast<i64>(u.size()) != lat.num_cells()) {
    u.assign(static_cast<std::size_t>(lat.num_cells()), Vec3{});
  }
  box.for_each(lat.dim(), [&](Int3 p) {
    const i64 c = lat.idx(p);
    u[static_cast<std::size_t>(c)] =
        lat.flag(c) == CellType::Solid ? Vec3{} : cell_moments(lat, c).u;
  });
}

double total_mass(const Lattice& lat) {
  // i-major, so the sum is bit-identical across storage modes.
  double sum = 0.0;
  const i64 n = lat.num_cells();
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < n; ++c) {
      if (lat.flag(c) == CellType::Solid) continue;
      sum += static_cast<double>(lat.f(i, c));
    }
  }
  return sum;
}

void total_momentum(const Lattice& lat, double out[3]) {
  out[0] = out[1] = out[2] = 0.0;
  const i64 n = lat.num_cells();
  for (int i = 1; i < Q; ++i) {
    double s = 0.0;
    for (i64 c = 0; c < n; ++c) {
      if (lat.flag(c) == CellType::Solid) continue;
      s += static_cast<double>(lat.f(i, c));
    }
    out[0] += s * C[i].x;
    out[1] += s * C[i].y;
    out[2] += s * C[i].z;
  }
}

Real max_velocity(const Lattice& lat) {
  Real m = 0;
  const i64 n = lat.num_cells();
  for (i64 c = 0; c < n; ++c) {
    if (lat.flag(c) == CellType::Solid) continue;
    const Moments mo = cell_moments(lat, c);
    m = std::max(m, mo.u.norm());
  }
  return m;
}

}  // namespace gc::lbm
