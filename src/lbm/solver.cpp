#include "lbm/solver.hpp"

#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "util/timer.hpp"

namespace gc::lbm {

void check_collide_step(const RunParams& p, bool thermal, Vec3 force) {
  GC_CHECK_MSG(!thermal || p.collision == CollisionKind::MRT,
               "the hybrid thermal model couples to the MRT collision");
  GC_CHECK_MSG(p.collision == CollisionKind::BGK ||
                   (force.x == Real(0) && force.y == Real(0) &&
                    force.z == Real(0)),
               "the body force " << force
                                 << " is BGK/Guo only: the MRT step would "
                                    "drop it");
}

void collide_step(Lattice& lat, const RunParams& p, Vec3 force,
                  ThermalField* thermal, const StepContext& ctx,
                  const CellBox& box) {
  if (thermal) {
    // Advance T with the pre-collision velocity, then collide with the
    // Boussinesq force.
    {
      obs::ScopedSpan span(ctx.trace, "thermal", ctx.rank, "lbm");
      thermal->advect(lat, box);
    }
    obs::ScopedSpan span(ctx.trace, "collide", ctx.rank, "lbm");
    collide_mrt(lat, MrtParams::standard(p.tau), ctx, box);
    thermal->apply_buoyancy(lat, box);
    return;
  }
  obs::ScopedSpan span(ctx.trace, "collide", ctx.rank, "lbm");
  if (p.collision == CollisionKind::MRT) {
    collide_mrt(lat, MrtParams::standard(p.tau), ctx, box);
  } else {
    collide_bgk(lat, BgkParams{p.tau, force}, ctx, box);
  }
}

Solver::Solver(Int3 dim, SolverConfig cfg) : cfg_(cfg), lat_(dim, cfg.storage) {
  check_collide_step(cfg_, cfg_.thermal.has_value(), cfg_.body_force);
  if (cfg_.thermal) thermal_.emplace(dim, *cfg_.thermal);
  if (cfg_.fused) {
    GC_CHECK_MSG(cfg_.collision == CollisionKind::BGK,
                 "fused kernel is implemented for BGK only");
  }
}

void Solver::step() {
  const StepContext ctx{cfg_.pool, cfg_.trace, 0};
  if (cfg_.fused) {
    fused_stream_collide(lat_, BgkParams{cfg_.tau, cfg_.body_force}, ctx);
  } else {
    collide_step(lat_, cfg_, cfg_.body_force, thermal(), ctx);
    stream(lat_, ctx);
  }
  ++steps_;
  check_divergence(lat_, cfg_.sentinel, steps_, ctx);
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
