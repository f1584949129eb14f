#include "lbm/thermal.hpp"

#include <algorithm>

#include "lbm/macroscopic.hpp"

namespace gc::lbm {

ThermalField::ThermalField(Int3 dim, ThermalParams params)
    : dim_(dim), params_(params) {
  const auto n = static_cast<std::size_t>(dim.volume());
  T_.assign(n, params.t_ref);
  T_next_.assign(n, params.t_ref);
  // Explicit 7-point diffusion stability: kappa * 6 < 1.
  GC_CHECK_MSG(params.kappa >= Real(0) && params.kappa < Real(1.0 / 6.0),
               "thermal diffusivity out of explicit-stability range: "
                   << params.kappa);
}

void ThermalField::fill(Real v) {
  std::fill(T_.begin(), T_.end(), v);
}

void ThermalField::step(const Lattice& lat, const std::vector<Vec3>& velocity,
                        const CellBox& box) {
  GC_CHECK(lat.dim() == dim_);
  GC_CHECK(velocity.size() == T_.size());
  const Int3 d = dim_;

  // Neighbor temperature with boundary handling: solid or out-of-domain
  // neighbors are adiabatic (mirror own value); periodic faces wrap;
  // Dirichlet z-plates (if enabled) impose the plate temperature.
  auto neighbor_t = [&](Int3 p, int axis, int dir, Real own) -> Real {
    Int3 q = p;
    q[axis] += dir;
    if (q[axis] < 0 || q[axis] >= d[axis]) {
      const Face face = static_cast<Face>(2 * axis + (dir > 0 ? 1 : 0));
      if (axis == 2 && params_.dirichlet_z) {
        return dir > 0 ? params_.t_cold : params_.t_hot;
      }
      if (lat.face_bc(face) == FaceBc::Periodic) {
        q[axis] = (q[axis] + d[axis]) % d[axis];
      } else {
        return own;  // adiabatic
      }
    }
    const i64 qc = idx(q.x, q.y, q.z);
    if (lat.flag(qc) == CellType::Solid) return own;
    return T_[static_cast<std::size_t>(qc)];
  };

  // The new values of box go to T_next_ first, since the stencil reads
  // T_ around every cell, and are then copied back.
  box.for_each(d, [&](Int3 p) {
    const auto ci = static_cast<std::size_t>(idx(p.x, p.y, p.z));
    if (lat.flag(p) == CellType::Solid) {
      T_next_[ci] = T_[ci];
      return;
    }
    const Real own = T_[ci];
    Real lap = Real(0);
    Real adv = Real(0);
    const Vec3 u = velocity[ci];
    for (int a = 0; a < 3; ++a) {
      const Real tm = neighbor_t(p, a, -1, own);
      const Real tp = neighbor_t(p, a, +1, own);
      lap += tm + tp - Real(2) * own;
      const Real ua = u[a];
      // First-order upwind derivative along axis a.
      adv += ua > Real(0) ? ua * (own - tm) : ua * (tp - own);
    }
    T_next_[ci] = own + params_.kappa * lap - adv;
  });
  box.for_each(d, [&](Int3 p) {
    const auto ci = static_cast<std::size_t>(idx(p.x, p.y, p.z));
    T_[ci] = T_next_[ci];
  });
}

void ThermalField::buoyancy_force(const Lattice& lat, std::vector<Vec3>& force,
                                  const CellBox& box) const {
  GC_CHECK(lat.dim() == dim_);
  if (force.size() != T_.size()) force.assign(T_.size(), Vec3{});
  box.for_each(dim_, [&](Int3 p) {
    const auto c = static_cast<std::size_t>(idx(p.x, p.y, p.z));
    force[c] = lat.flag(p) == CellType::Solid
                   ? Vec3{}
                   : Vec3{0, 0, params_.buoyancy * (T_[c] - params_.t_ref)};
  });
}

double ThermalField::total_heat(const Lattice& lat) const {
  double sum = 0.0;
  for (std::size_t c = 0; c < T_.size(); ++c) {
    if (lat.flag(static_cast<i64>(c)) == CellType::Solid) continue;
    sum += static_cast<double>(T_[c]);
  }
  return sum;
}

void ThermalField::advect(const Lattice& lat, const CellBox& box) {
  compute_velocity_field(lat, velocity_, box);
  step(lat, velocity_, box);
}

void ThermalField::apply_buoyancy(Lattice& lat, const CellBox& box) {
  buoyancy_force(lat, force_, box);
  apply_force_first_order(lat, force_, box);
}

void apply_force_first_order(Lattice& lat, const std::vector<Vec3>& force,
                             const CellBox& box) {
  GC_CHECK(static_cast<i64>(force.size()) == lat.num_cells());
  // i-major through the accessors: the same values in the same order on
  // every storage mode.
  for (int i = 1; i < Q; ++i) {
    const Real wx = Real(3) * W[i] * Real(C[i].x);
    const Real wy = Real(3) * W[i] * Real(C[i].y);
    const Real wz = Real(3) * W[i] * Real(C[i].z);
    box.for_each(lat.dim(), [&](Int3 p) {
      const i64 c = lat.idx(p);
      if (lat.flag(c) != CellType::Fluid) return;
      const Vec3& F = force[static_cast<std::size_t>(c)];
      lat.set_f(i, c, lat.f(i, c) + (wx * F.x + wy * F.y + wz * F.z));
    });
  }
}

}  // namespace gc::lbm
