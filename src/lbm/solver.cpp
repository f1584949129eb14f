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
  // Phase boundaries for the StepStats record; only read when tracing
  // (the untraced hot path performs no clock reads or allocations).
  const double t_begin = rec ? rec->now_us() : 0;
  double t_thermal = 0, t_collide = 0;

  if (thermal_) {
    // Hybrid thermal step: advance T with the current velocity field,
    // then collide with the Boussinesq force, then stream.
    {
      obs::ScopedSpan span(rec, "thermal", 0, "lbm");
      compute_velocity_field(lat_, velocity_field_);
      thermal_->step(lat_, velocity_field_);
    }
    if (rec) t_thermal = rec->now_us();
    const MrtParams p = cfg_.mrt ? *cfg_.mrt : MrtParams::standard(cfg_.tau);
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_mrt(lat_, p, ctx);
      thermal_->buoyancy_force(lat_, force_field_);
      apply_force_first_order(lat_, force_field_);
    }
    if (rec) t_collide = rec->now_us();
    stream(lat_, ctx);
  } else if (cfg_.collision == CollisionKind::MRT) {
    const MrtParams p = cfg_.mrt ? *cfg_.mrt : MrtParams::standard(cfg_.tau);
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_mrt(lat_, p, ctx);
    }
    if (rec) t_collide = rec->now_us();
    stream(lat_, ctx);
  } else if (cfg_.fused) {
    fused_stream_collide(lat_, BgkParams{cfg_.tau, cfg_.body_force}, ctx);
    if (rec) t_collide = rec->now_us();
  } else {
    {
      obs::ScopedSpan span(rec, "collide", 0, "lbm");
      collide_bgk(lat_, BgkParams{cfg_.tau, cfg_.body_force}, ctx);
    }
    if (rec) t_collide = rec->now_us();
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

  if (rec) {
    const double t_end = rec->now_us();
    last_stats_.step = steps_;
    last_stats_.thermal_ms = (t_thermal ? t_thermal - t_begin : 0) * 1e-3;
    const double collide_from = t_thermal ? t_thermal : t_begin;
    last_stats_.collide_ms =
        (t_collide ? t_collide - collide_from : 0) * 1e-3;
    last_stats_.stream_ms = (t_collide ? t_end - t_collide : 0) * 1e-3;
    last_stats_.total_ms = (t_end - t_begin) * 1e-3;
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
