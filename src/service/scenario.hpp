// The request/result vocabulary of the scenario service: one
// ScenarioRequest describes a complete urban-dispersion query — which
// city variant, at what resolution, under what wind, with tracers
// released where — and one ScenarioResult carries everything the paper's
// Section 5 workflow reads back (flow stats, tracer fate, per-cell
// concentration). Requests deliberately reference *parameters*, not
// lattices: two requests that build the same lattice share a FlowKey and
// therefore a cached steady flow.
#pragma once

#include <vector>

#include "city/city_model.hpp"
#include "city/voxelize.hpp"
#include "city/wind.hpp"
#include "lbm/run_params.hpp"
#include "obs/trace.hpp"
#include "service/flow_cache.hpp"

namespace gc::service {

/// One tracer release: `count` particles injected at a lattice site
/// before the dispersion steps run.
struct Release {
  Int3 site{};
  int count = 0;
};

/// A complete scenario query. Everything above `releases` determines the
/// steady flow (and therefore the cache key); the release list, tracer
/// seed and step count only affect the cheap dispersion phase.
struct ScenarioRequest {
  // --- flow-determining fields (feed scenario_flow_key) ---
  city::CityParams city{};           ///< city variant (seed, extents, ...)
  city::VoxelizeParams voxel{};      ///< rasterization onto the lattice
  Int3 dim{96, 64, 24};              ///< lattice resolution
  city::WindScenario wind{};         ///< inflow velocity + ABL profile
  lbm::RunParams params{};           ///< tau / collision / storage mode
  int spin_up_steps = 200;           ///< LBM steps to steady state

  // --- dispersion-only fields ---
  std::vector<Release> releases;     ///< tracer sources
  int tracer_steps = 100;            ///< Lowe–Succi hops after release
  u64 tracer_seed = 7;               ///< tracer RNG seed (determinism)

  // --- service-level fields (not part of the flow key) ---
  /// Wall-clock budget from submit() to completion, in ms; past it the
  /// request fails with service::DeadlineExceeded — in the queue, while
  /// waiting for a partition, or mid-run (the service watchdog aborts
  /// the lease's communicator world). 0 = no deadline.
  double deadline_ms = 0;
};

/// What a scenario hands back.
struct ScenarioResult {
  bool cache_hit = false;       ///< flow restored from the cache
  int partition = -1;           ///< partition that ran the flow (-1 = none)
  obs::RunStats flow_stats;     ///< spin-up stats (zero steps on a hit)
  double flow_ms = 0;           ///< wall time of the flow phase (incl. cache)
  double tracer_ms = 0;         ///< wall time of the dispersion phase
  i64 particles_released = 0;
  i64 particles_escaped = 0;    ///< left the domain through open faces
  i64 particles_alive = 0;
  /// Per-cell particle density (dim.x*dim.y*dim.z floats, x fastest).
  std::vector<float> concentration;
};

/// Builds the cold-start lattice for a request: wind boundaries, uniform
/// (or profiled) equilibrium at the wind velocity, city voxelized to
/// Solid cells. This is the lattice whose geometry the cache key hashes.
lbm::Lattice build_scenario_lattice(const ScenarioRequest& req);

/// The flow-cache key of a request, given its built lattice (pass the
/// build_scenario_lattice result to avoid rasterizing twice).
FlowKey scenario_flow_key(const ScenarioRequest& req,
                          const lbm::Lattice& lat);

}  // namespace gc::service
