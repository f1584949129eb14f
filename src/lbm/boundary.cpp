#include "lbm/boundary.hpp"

#include <algorithm>
#include <utility>

namespace gc::lbm {

Vec3 momentum_exchange_force(const Lattice& lat) {
  // For every fluid cell with a solid neighbor along c_i, the wall gains
  // momentum c_i * (f*_i(x) + f_i'(x)). The curved links' recorded f*_i,
  // keyed by (cell, direction) in the order the loop visits the links.
  const std::vector<CurvedLink>& links = lat.curved_links();
  const std::vector<Real>& recorded = lat.curved_link_out();
  GC_CHECK_MSG(recorded.size() == links.size(),
               "momentum_exchange_force needs a stream after the curved "
               "links were added");
  std::vector<std::pair<i64, Real>> curved;
  curved.reserve(links.size());
  for (std::size_t k = 0; k < links.size(); ++k) {
    curved.emplace_back(links[k].cell * Q + links[k].dir, recorded[k]);
  }
  std::sort(curved.begin(), curved.end());
  auto next = curved.begin();

  Vec3 force{};
  const Int3 d = lat.dim();
  for (int z = 0; z < d.z; ++z) {
    for (int y = 0; y < d.y; ++y) {
      for (int x = 0; x < d.x; ++x) {
        const i64 cell = lat.idx(x, y, z);
        if (lat.flag(cell) != CellType::Fluid) continue;
        for (int i = 1; i < Q; ++i) {
          const Int3 np = Int3{x, y, z} + C[i];
          if (!lat.in_bounds(np) || lat.flag(np) != CellType::Solid) continue;
          const Real back = lat.f(OPP[i], cell);  // reflected
          const i64 key = cell * Q + i;
          while (next != curved.end() && next->first < key) ++next;
          const Real out =  // heading to wall
              next != curved.end() && next->first == key ? next->second : back;
          const Real m = out + back;
          force.x += m * Real(C[i].x);
          force.y += m * Real(C[i].y);
          force.z += m * Real(C[i].z);
        }
      }
    }
  }
  return force;
}

namespace detail {

void curved_link_fixups(Lattice& lat, const CellClass& cc) {
  const std::vector<CurvedLink>& links = lat.curved_links();
  std::vector<Real>& out = lat.curved_link_out();
  out.resize(links.size());
  std::vector<Real>& fix = lat.aa_fix_scratch();
  for (std::size_t k = 0; k < links.size(); ++k) {
    const CurvedLink& L = links[k];
    const int i = L.dir;
    const Real fi_star = lat.f(i, L.cell);
    out[k] = fi_star;
    const i64 at = cc.curved_at[k];
    if (at < 0) continue;  // a solid cell: nothing is written there
    Real corrected;
    if (L.q < Real(0.5)) {
      const Int3 behind = lat.coords(L.cell) - C[i];
      Real f_behind = fi_star;
      if (lat.in_bounds(behind) && lat.flag(behind) == CellType::Fluid) {
        f_behind = lat.f(i, behind);
      }
      corrected = Real(2) * L.q * fi_star + (Real(1) - Real(2) * L.q) * f_behind;
    } else {
      const Real inv2q = Real(1) / (Real(2) * L.q);
      const Real fip_star = lat.f(OPP[i], L.cell);
      corrected = inv2q * fi_star + (Real(1) - inv2q) * fip_star;
    }
    fix[static_cast<std::size_t>(at)] = corrected;
  }
}

}  // namespace detail
}  // namespace gc::lbm
