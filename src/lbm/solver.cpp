#include "lbm/solver.hpp"

#include <algorithm>

#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "util/timer.hpp"

namespace gc::lbm {

Solver::Solver(Int3 dim, SolverConfig cfg) : cfg_(cfg), lat_(dim, cfg.storage) {
  if (cfg_.thermal) {
    thermal_.emplace(dim, *cfg_.thermal);
    GC_CHECK_MSG(cfg_.collision == CollisionKind::MRT,
                 "the hybrid thermal model couples to the MRT collision");
  }
  if (cfg_.fused) {
    GC_CHECK_MSG(cfg_.collision == CollisionKind::BGK,
                 "fused kernel is implemented for BGK only");
  }
}

void Solver::step() {
  const StepContext ctx{cfg_.pool, cfg_.trace, 0};
  obs::TraceRecorder* rec = cfg_.trace;

  if (thermal_) {
    // Hybrid thermal step: advance T with the current velocity field,
    // then collide with the Boussinesq force, then stream.
    {
      obs::ScopedSpan span(rec, "thermal", 0, "lbm");
      compute_velocity_field(lat_, velocity_field_);
      thermal_->step(lat_, velocity_field_);
    }
    const MrtParams p = cfg_.mrt ? *cfg_.mrt : MrtParams::standard(cfg_.tau);
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_mrt(lat_, p, ctx);
      thermal_->buoyancy_force(lat_, force_field_);
      apply_force_first_order(lat_, force_field_);
    }
    stream(lat_, ctx);
  } else if (cfg_.collision == CollisionKind::MRT) {
    const MrtParams p = cfg_.mrt ? *cfg_.mrt : MrtParams::standard(cfg_.tau);
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_mrt(lat_, p, ctx);
    }
    stream(lat_, ctx);
  } else if (cfg_.fused) {
    fused_stream_collide(lat_, BgkParams{cfg_.tau, cfg_.body_force}, ctx);
  } else {
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_bgk(lat_, BgkParams{cfg_.tau, cfg_.body_force}, ctx);
    }
    stream(lat_, ctx);
  }
  ++steps_;

  if (cfg_.sentinel && steps_ % std::max(1, cfg_.sentinel->every) == 0) {
    obs::ScopedSpan span(rec, "sentinel", 0, "ft");
    if (auto report = scan_divergence(lat_, *cfg_.sentinel)) {
      if (rec) rec->add_counter("ft.divergences", 0, 1);
      throw DivergenceError(*report, steps_, 0);
    }
  }
}

obs::RunStats Solver::run(int steps) {
  obs::RunStats rs;
  const std::size_t ev0 = cfg_.trace ? cfg_.trace->num_events() : 0;
  Timer t;
  for (int s = 0; s < steps; ++s) step();
  rs.steps = steps;
  rs.wall_ms = t.millis();
  if (cfg_.trace) {
    rs.phases = cfg_.trace->phase_totals(ev0);
    cfg_.trace->add_counter("solver.steps", 0, steps);
    cfg_.trace->set_gauge("lattice.bytes_allocated", 0,
                          static_cast<double>(lat_.storage_bytes()));
  }
  return rs;
}

}  // namespace gc::lbm
