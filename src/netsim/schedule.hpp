// The contention-aware communication schedule of Section 4.3 (Figure 7):
// exchanges happen in a fixed sequence of steps; within a step, disjoint
// pairs of nodes exchange data simultaneously, so no third node ever
// interrupts an in-flight transfer. Diagonal (second-nearest-neighbor)
// traffic is never sent directly — it is routed in two axial hops,
// piggybacked on the scheduled messages (node B -> A in the x steps, then
// A -> E in the y steps).
#pragma once

#include <array>
#include <vector>

#include "util/common.hpp"
#include "util/vec3.hpp"

namespace gc::netsim {

/// Per-pair payload bytes for every schedule step: bytes[k][p] is the
/// traffic of pair p within schedule step k (face payloads plus any
/// piggybacked diagonal hops). The shared shape of the analytic
/// (ClusterSimulator) and measured (ParallelLbm) traffic accountings,
/// and the input of SwitchModel::scheduled_seconds.
using TrafficMatrix = std::vector<std::vector<i64>>;

/// A logical arrangement of cluster nodes in a 1D/2D/3D grid.
struct NodeGrid {
  Int3 dims{1, 1, 1};

  int num_nodes() const { return static_cast<int>(dims.volume()); }
  bool contains(Int3 c) const {
    return c.x >= 0 && c.x < dims.x && c.y >= 0 && c.y < dims.y && c.z >= 0 &&
           c.z < dims.z;
  }
  int id(Int3 c) const { return c.x + dims.x * (c.y + dims.y * c.z); }
  Int3 coords(int node) const;

  /// Most-square 2D arrangement for n nodes (the paper arranges its
  /// sub-domains in 2D for Table 1).
  static NodeGrid arrange_2d(int n);
  /// Most-cubic 3D arrangement.
  static NodeGrid arrange_3d(int n);
};

/// The 12 grid offsets of a node's diagonal (second-nearest) neighbors:
/// exactly two nonzero components, each ±1 — all that D3Q19 needs.
/// Ordered by axis pair (xy, xz, yz), then by the sign of the lower axis,
/// then of the higher one.
const std::array<Int3, 12>& diagonal_offsets();

/// The face (2·axis, +1 on the positive side — lbm::Face numbering) a
/// node's block shares with its axial neighbor at grid offset `off`.
int face_toward(Int3 off);

/// One bidirectional exchange between nodes a and b (a < b).
struct ExchangePair {
  int a;
  int b;
  friend bool operator==(ExchangePair x, ExchangePair y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// The full schedule: steps execute in order; pairs within a step run
/// simultaneously and are guaranteed node-disjoint.
struct CommSchedule {
  NodeGrid grid;
  std::vector<std::vector<ExchangePair>> steps;
  /// steps[axis_step_begin[a]] .. steps[axis_step_begin[a]+1] are the two
  /// steps exchanging along axis a; -1 if the axis is not decomposed.
  int axis_step_begin[3] = {-1, -1, -1};

  /// Builds the Figure-7 pattern: per decomposed axis, first the "even
  /// coordinates exchange with their minus neighbor" step, then the plus
  /// step. Axes are ordered x, y, z.
  static CommSchedule pairwise(const NodeGrid& grid);

  /// True when no node appears twice within any single step.
  bool pairs_disjoint_within_steps() const;

  /// True when every axially adjacent node pair appears in exactly one step.
  bool covers_all_axial_neighbors() const;

  int num_steps() const { return static_cast<int>(steps.size()); }
};

/// A two-hop route carrying diagonal traffic: src sends in `first_step`
/// (bundled with its axial message to `via`), and `via` forwards in
/// `second_step`. first_step < second_step always holds, so data arrives
/// within the same schedule round.
struct IndirectRoute {
  int src;
  int via;
  int dst;
  int first_step;
  int second_step;
};

/// Plans routes for every ordered pair of diagonally adjacent nodes
/// (offset with exactly two nonzero components — all that D3Q19 needs).
std::vector<IndirectRoute> plan_indirect_routes(const CommSchedule& sched);

}  // namespace gc::netsim
