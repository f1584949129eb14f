// Smagorinsky large-eddy closure for the BGK collision: the paper's
// urban flows are compared against HIGRAD's large-eddy simulation; at a
// 3.8 m grid spacing the unresolved eddies need a subgrid model. The
// eddy viscosity comes from the local non-equilibrium stress (computable
// per cell with no extra storage — GPU-friendly):
//   Pi_ab   = sum_i c_ia c_ib (f_i - f_i^eq)
//   Q       = sqrt(2 Pi:Pi)
//   tau_eff = tau0/2 + sqrt(tau0^2 + 18 sqrt(2) Cs^2 Q / rho) / 2
#pragma once

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct SmagorinskyParams {
  Real tau0 = Real(0.52);  ///< molecular relaxation time
  Real cs = Real(0.14);    ///< Smagorinsky constant (0.1 - 0.2 typical)
};

/// Effective relaxation time at one cell given its distributions.
Real smagorinsky_tau(const Real f[Q], const SmagorinskyParams& p);

/// BGK collision with the locally adapted relaxation time, on every
/// storage mode: the same pass, pooling, AA and box semantics as
/// collide_bgk.
void collide_bgk_les(Lattice& lat, const SmagorinskyParams& p,
                     const StepContext& ctx = {}, const CellBox& box = {});

}  // namespace gc::lbm
