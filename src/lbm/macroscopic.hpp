// Macroscopic moments of the distributions: density rho = sum f_i and
// momentum rho u = sum f_i c_i, the velocity field the hybrid thermal step
// advects with (over a CellBox, so a rank computes its owned cells only),
// plus whole-field reductions used by tests (conservation checks) and by
// the dispersion/visualization modules. Every loop reads through the
// phase-transparent accessors: one definition per helper, whatever the
// storage mode.
#pragma once

#include <vector>

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct Moments {
  Real rho;
  Vec3 u;
};

/// Density and velocity at one cell (velocity = momentum / density).
Moments cell_moments(const Lattice& lat, i64 cell);

/// rho for every cell; solid cells report 0.
void compute_density_field(const Lattice& lat, std::vector<Real>& rho);

/// u for the cells of `box` (the whole lattice by default); solid cells
/// report (0,0,0). u is sized to the lattice, zero-filled, when its size
/// differs; entries outside the box are left as they are, so a rank's
/// ghost entries stay zero.
void compute_velocity_field(const Lattice& lat, std::vector<Vec3>& u,
                            const CellBox& box = {});

/// Sum of rho over fluid cells (double accumulation for stable comparisons).
/// Both sums run i-major, so they are bit-identical across storage modes.
double total_mass(const Lattice& lat);

/// Sum of momentum over fluid cells.
void total_momentum(const Lattice& lat, double out[3]);

/// Maximum |u| over fluid cells — used as a stability diagnostic (the LBM
/// is advection-limited; |u| must stay well below cs ~ 0.577).
Real max_velocity(const Lattice& lat);

}  // namespace gc::lbm
