// Top-level single-node LBM solver: owns a Lattice (and optionally a
// ThermalField) and advances them one step at a time. This is the serial
// reference implementation that the simulated-GPU solver (src/gpulbm) and
// the distributed solver (src/core) are validated against.
//
// Also here: the sub-domain step that Solver and core::ParallelLbm both
// run. collide_step is everything of a step but streaming — BGK, MRT, or
// the hybrid thermal sequence — over a CellBox; Solver calls it on the
// whole lattice and core::ParallelLbm on a rank's owned cells, each
// followed by its own streaming (serial stream, or the border exchange)
// and the shared sentinel (check_divergence, sentinel.hpp).
#pragma once

#include <memory>
#include <optional>

#include "lbm/collision.hpp"
#include "lbm/lattice.hpp"
#include "lbm/run_params.hpp"
#include "lbm/sentinel.hpp"
#include "lbm/thermal.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

/// Embeds RunParams (tau / collision / storage — see run_params.hpp) so
/// one params object can be splatted across every stepping front-end.
struct SolverConfig : RunParams {
  /// Uniform body force, BGK/Guo only: the constructor rejects one with
  /// MRT (thermal or not), whose step would drop it.
  Vec3 body_force{};
  bool fused = false;  ///< use the fused stream+collide kernel
  std::optional<ThermalParams> thermal;
  /// When set, collision and streaming run on this pool (z-slab
  /// parallelism, bit-identical to the serial kernels). Not owned.
  ThreadPool* pool = nullptr;
  /// When set, step() emits collide/stream/thermal/finish spans here.
  /// Null = zero instrumentation cost.
  obs::TraceRecorder* trace = nullptr;
  /// When set, every `sentinel->every`-th step() ends with a divergence
  /// scan (NaN / density bounds) and throws DivergenceError on failure.
  /// Unset = zero cost.
  std::optional<SentinelThresholds> sentinel;
};

class Solver {
 public:
  Solver(Int3 dim, SolverConfig cfg);

  Lattice& lattice() { return lat_; }
  const Lattice& lattice() const { return lat_; }
  ThermalField* thermal() { return thermal_ ? &*thermal_ : nullptr; }
  const SolverConfig& config() const { return cfg_; }

  /// One LBM time step: collide (+ thermal coupling), stream.
  void step();

  /// Advances `steps` steps; the summary carries wall time and, when a
  /// recorder is attached, per-phase totals for just this run.
  obs::RunStats run(int steps);

  i64 step_count() const { return steps_; }

 private:
  SolverConfig cfg_;
  Lattice lat_;
  std::optional<ThermalField> thermal_;
  i64 steps_ = 0;
};

/// Throws gc::Error unless collide_step runs this configuration as given:
/// the hybrid thermal model couples to the MRT collision, and a body
/// force is BGK/Guo only.
void check_collide_step(const RunParams& p, bool thermal, Vec3 force = {});

/// The collide half of one step on the cells of `box` (the whole lattice
/// by default). With `thermal`: the hybrid sequence — the field advects
/// with the velocity of box ("thermal" span), then MRT at
/// MrtParams::standard(p.tau) and the Boussinesq force on box ("collide"
/// span). Otherwise MRT, or BGK with the Guo body force `force`, under a
/// "collide" span. Spans go to ctx.trace on lane ctx.rank; the kernels run
/// on ctx.pool.
void collide_step(Lattice& lat, const RunParams& p, Vec3 force,
                  ThermalField* thermal, const StepContext& ctx,
                  const CellBox& box = {});

}  // namespace gc::lbm
