// Divergence sentinel: cheap per-step health checks of the LBM state.
// Long cluster runs can silently blow up — a bad boundary setup, an
// undetected data corruption, an unstable tau — and every step computed
// after the first NaN is wasted. The sentinel scans a CellBox (a rank's
// owned cells, or the whole lattice) for non-finite distributions and
// densities outside configured bounds and raises a typed DivergenceError
// the recovery layer can roll back on. check_divergence is the one
// sentinel block that lbm::Solver and core::ParallelLbm run after each
// step.
#pragma once

#include <optional>
#include <string>

#include "lbm/lattice.hpp"
#include "lbm/step_context.hpp"

namespace gc::lbm {

struct SentinelThresholds {
  Real rho_min = Real(0.2);  ///< below this the state is considered lost
  Real rho_max = Real(5.0);
  int every = 1;  ///< check every Nth step (1 = every step)
};

/// Where and how the state diverged.
struct DivergenceReport {
  Int3 cell{};
  Real rho = 0;
  bool non_finite = false;  ///< NaN/Inf distribution (else: rho bounds)

  std::string describe() const;
};

/// Thrown by check_divergence.
class DivergenceError : public Error {
 public:
  DivergenceError(const DivergenceReport& report, i64 step, int rank);
  const DivergenceReport& report() const { return report_; }
  i64 step() const { return step_; }
  int rank() const { return rank_; }

 private:
  DivergenceReport report_;
  i64 step_;
  int rank_;
};

/// Scans the fluid cells of `box` (the whole lattice by default) and
/// returns the first divergence found (nullopt when healthy). Solid cells
/// are skipped: their distributions are not evolved.
std::optional<DivergenceReport> scan_divergence(const Lattice& lat,
                                                const SentinelThresholds& t,
                                                const CellBox& box = {});

/// The sentinel half of one step, shared by lbm::Solver and
/// core::ParallelLbm: when `t` is set and `step` (the steps completed so
/// far) is a multiple of t->every, scans `box` under a "sentinel" span on
/// ctx.trace and, on a divergence, bumps the ft.divergences counter of
/// ctx.rank and throws DivergenceError. Unset = zero cost.
void check_divergence(const Lattice& lat,
                      const std::optional<SentinelThresholds>& t, i64 step,
                      const StepContext& ctx, const CellBox& box = {});

}  // namespace gc::lbm
