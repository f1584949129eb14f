// Top-level single-node LBM solver: owns a Lattice (and optionally a
// ThermalField) and advances them one step at a time. This is the serial
// reference implementation that the simulated-GPU solver (src/gpulbm) and
// the distributed solver (src/core) are validated against.
#pragma once

#include <memory>
#include <optional>

#include "lbm/collision.hpp"
#include "lbm/lattice.hpp"
#include "lbm/mrt.hpp"
#include "lbm/run_params.hpp"
#include "lbm/sentinel.hpp"
#include "lbm/thermal.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

/// Embeds RunParams (tau / collision / storage — see run_params.hpp) so
/// one params object can be splatted across every stepping front-end.
struct SolverConfig : RunParams {
  Vec3 body_force{};             ///< uniform force (BGK/Guo only)
  bool fused = false;            ///< use the fused stream+collide kernel
  std::optional<MrtParams> mrt;  ///< overrides MrtParams::standard(tau)
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
  std::vector<Vec3> force_field_;
  std::vector<Vec3> velocity_field_;
  i64 steps_ = 0;
};

}  // namespace gc::lbm
