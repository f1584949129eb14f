#include "lbm/sentinel.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/trace.hpp"

namespace gc::lbm {

std::string DivergenceReport::describe() const {
  std::ostringstream os;
  if (non_finite) {
    os << "non-finite distribution at cell " << cell;
  } else {
    os << "density " << rho << " out of bounds at cell " << cell;
  }
  return os.str();
}

DivergenceError::DivergenceError(const DivergenceReport& report, i64 step,
                                 int rank)
    : Error("divergence detected at step " + std::to_string(step) + " rank " +
            std::to_string(rank) + ": " + report.describe()),
      report_(report),
      step_(step),
      rank_(rank) {}

std::optional<DivergenceReport> scan_divergence(const Lattice& lat,
                                                const SentinelThresholds& t,
                                                const CellBox& box) {
  std::optional<DivergenceReport> found;
  box.for_each(lat.dim(), [&](Int3 p) {
    const i64 c = lat.idx(p);
    if (found || lat.flag(c) == CellType::Solid) return;
    Real rho = 0;
    bool bad = false;
    for (int i = 0; i < Q; ++i) {
      const Real fi = lat.f(i, c);
      if (!std::isfinite(fi)) bad = true;
      rho += fi;
    }
    if (bad || !std::isfinite(rho)) {
      found = DivergenceReport{p, rho, true};
    } else if (rho < t.rho_min || rho > t.rho_max) {
      found = DivergenceReport{p, rho, false};
    }
  });
  return found;
}

void check_divergence(const Lattice& lat,
                      const std::optional<SentinelThresholds>& t, i64 step,
                      const StepContext& ctx, const CellBox& box) {
  if (!t || step % std::max(1, t->every) != 0) return;
  obs::ScopedSpan span(ctx.trace, "sentinel", ctx.rank, "ft");
  if (auto report = scan_divergence(lat, *t, box)) {
    if (ctx.trace) ctx.trace->add_counter("ft.divergences", ctx.rank, 1);
    throw DivergenceError(*report, step, ctx.rank);
  }
}

}  // namespace gc::lbm
