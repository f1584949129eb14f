// Hybrid thermal LBM (Section 4.1, Lallemand & Luo 2003): temperature is
// modeled by a standard diffusion-advection equation implemented as a
// finite-difference update, coupled back into the (MRT) LBM through a
// Boussinesq buoyancy term. The field owns the coupling's velocity and
// force scratch, and its two coupling calls take a CellBox, so the serial
// solver (whole lattice) and a distributed rank (owned cells) run the
// same sequence through lbm::collide_step.
#pragma once

#include <vector>

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct ThermalParams {
  Real kappa = Real(0.05);    ///< thermal diffusivity (lattice units)
  Real buoyancy = Real(0.0);  ///< g*beta: force per unit (T - t_ref) along +z
  Real t_ref = Real(0.0);     ///< reference temperature

  /// When true, the z-min face is held at t_hot and z-max at t_cold
  /// (Rayleigh-Benard setup); otherwise all walls are adiabatic.
  bool dirichlet_z = false;
  Real t_hot = Real(1.0);
  Real t_cold = Real(0.0);
};

/// Finite-difference temperature field living on the same grid as a
/// Lattice. Explicit Euler: dT/dt + u.grad(T) = kappa Laplacian(T), with
/// first-order upwind advection (stable for |u| <= 1, which the LBM's
/// advection limit already guarantees).
class ThermalField {
 public:
  ThermalField(Int3 dim, ThermalParams params);

  Int3 dim() const { return dim_; }
  const ThermalParams& params() const { return params_; }

  Real t(i64 cell) const { return T_[static_cast<std::size_t>(cell)]; }
  void set_t(i64 cell, Real v) { T_[static_cast<std::size_t>(cell)] = v; }
  const std::vector<Real>& field() const { return T_; }

  /// Fill the whole field with a constant.
  void fill(Real v);

  /// One explicit advection-diffusion update of the cells of `box` (the
  /// whole field by default) using the lattice's flags (solid cells are
  /// adiabatic) and the given velocity field; T outside box is neither
  /// computed nor written.
  void step(const Lattice& lat, const std::vector<Vec3>& velocity,
            const CellBox& box = {});

  /// Boussinesq body force on the cells of `box` (the whole field by
  /// default): F_z = buoyancy * (T - t_ref), zero at solids. `force` is
  /// zero-filled when it is sized; entries outside box are not written.
  void buoyancy_force(const Lattice& lat, std::vector<Vec3>& force,
                      const CellBox& box = {}) const;

  /// The hybrid step's two couplings, on the cells of `box` (the whole
  /// lattice by default), through scratch this field owns. advect() runs
  /// step() on box with the lattice velocity of box, so a rank leaves its
  /// ghost temperatures to the next ghost swap. apply_buoyancy() adds the
  /// Boussinesq force to the fluid cells of box after the collision.
  void advect(const Lattice& lat, const CellBox& box = {});
  void apply_buoyancy(Lattice& lat, const CellBox& box = {});

  /// Sum of T over non-solid cells (diffusion conserves it when adiabatic).
  double total_heat(const Lattice& lat) const;

 private:
  i64 idx(int x, int y, int z) const {
    return x + i64(dim_.x) * (y + i64(dim_.y) * z);
  }

  Int3 dim_;
  ThermalParams params_;
  std::vector<Real> T_;
  std::vector<Real> T_next_;
  std::vector<Vec3> velocity_;  ///< advect() scratch
  std::vector<Vec3> force_;     ///< apply_buoyancy() scratch
};

/// First-order force shift applied after collision to the fluid cells of
/// `box` (the whole lattice by default): f_i += 3 w_i (c_i . F).
/// Conserves mass exactly and injects momentum F per step; paired with the
/// MRT collision for the hybrid thermal model.
void apply_force_first_order(Lattice& lat, const std::vector<Vec3>& force,
                             const CellBox& box = {});

}  // namespace gc::lbm
