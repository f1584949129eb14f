// The execution parameters every stepping front-end shares: relaxation
// time, collision operator, and distribution storage backend. SolverConfig
// (serial) and core::ParallelConfig (distributed) used to re-declare these
// fields by hand; they now embed RunParams by inheritance, so `cfg.tau`
// keeps reading naturally and a caller — e.g. a service::ScenarioRequest
// — can carry ONE params object and splat it into whichever front-end
// executes the run:
//
//   static_cast<lbm::RunParams&>(cfg) = request.params;
#pragma once

#include "lbm/lattice.hpp"

namespace gc::lbm {

/// Collision operator: BGK (the paper's cluster application) or the MRT
/// operator of the hybrid thermal model.
enum class CollisionKind { BGK, MRT };

struct RunParams {
  Real tau = Real(0.8);
  CollisionKind collision = CollisionKind::BGK;
  /// Distribution storage backend: the in-place AA pattern, or the
  /// compact fluid-index layout for solid-heavy scenes (bit-exact).
  StorageMode storage = StorageMode::AA;
};

}  // namespace gc::lbm
