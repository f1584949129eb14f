// Multiple-Relaxation-Time collision (d'Humieres; Lallemand & Luo) for
// D3Q19 — the collision model the paper's hybrid thermal LBM (Section 4.1)
// adopts for stability. Moments are relaxed individually: conserved
// moments (density, momentum) at rate 0, the shear-stress moments at
// 1/tau (setting the viscosity), and the remaining "ghost" moments at
// tunable rates that damp high-frequency noise. The equilibrium moments
// are those of the BGK equilibrium (M * f_eq), so MRT with every rate at
// 1/tau reduces exactly to BGK.
#pragma once

#include <array>

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

/// The 19x19 orthogonal moment transform and its inverse, built from the
/// standard row polynomials in c (density, energy, energy^2, momentum,
/// heat flux, stresses, and third-order ghosts). Rows are mutually
/// orthogonal under the unweighted inner product, so the inverse is
/// M^T diag(1/||row||^2).
struct MomentBasis {
  std::array<std::array<double, Q>, Q> M;
  std::array<std::array<double, Q>, Q> Minv;
  std::array<double, Q> row_norm2;

  /// The basis is a pure function of the D3Q19 link set; built once.
  static const MomentBasis& instance();
};

struct MrtParams {
  /// Relaxation rate per moment. Conserved moments (0, 3, 5, 7) are
  /// ignored. Call set_viscosity_rates(tau) to set the stress rates.
  std::array<Real, Q> s{};

  /// Default d'Humieres-2002 rates with stress moments at 1/tau.
  static MrtParams standard(Real tau);

  /// All rates equal to 1/tau (the BGK-equivalence configuration).
  static MrtParams bgk_equivalent(Real tau);

  /// Sets only the five stress-moment rates (9, 11, 13, 14, 15) to 1/tau.
  void set_viscosity_rates(Real tau);
};

/// Collides the fluid cells of `box` with the MRT operator: the same
/// pass, pooling, AA and box semantics as collide_bgk.
void collide_mrt(Lattice& lat, const MrtParams& p, const StepContext& ctx = {},
                 const CellBox& box = {});

/// Single-cell MRT collision (shared with the simulated-GPU path; the
/// paper notes HTLBM needs "only two additional matrix multiplications").
void collide_mrt_cell(Real f[Q], const MrtParams& p);

}  // namespace gc::lbm
