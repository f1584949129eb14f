// Precomputed cell classification for the stream/collide hot path.
// One pass over the lattice (rebuilt only when flags change, see
// Lattice::cell_class) partitions every cell into bulk-fast / slow /
// solid and run-length-encodes the bulk-fast cells into per-row spans,
// so the per-step kernels never re-scan the 18 neighbor flags of every
// cell — the sparse-indexing optimization of Habich et al. and
// Tomczak & Szafran applied to our host kernels.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace gc::lbm {

class Lattice;

/// One maximal run of bulk-fast cells inside a single lattice row
/// (constant y and z, consecutive x). `begin` is the linear index of the
/// first cell; the run never crosses a row boundary.
struct CellSpan {
  i64 begin;
  i32 len;
};

/// Static per-cell classification of a Lattice:
///   - bulk-fast: interior fluid cells whose 19 pull sources are all
///     in-bounds fluid — streaming is a plain shifted copy and collision
///     needs no flag test. Stored as spans for branch-free tight loops.
///   - slow: every other non-solid cell (boundary ring, cells adjacent
///     to solids/inlets/outflows, and Inlet/Outflow-flagged cells) —
///     these take the general pull_value path.
///   - solid: bounce-back obstacles (streaming writes zeros).
/// Every list is sorted by cell, and the `*_z` arrays partition each one
/// by z-slice (size dim.z + 1), so pooled kernels hand out contiguous
/// z-chunks without re-scanning, and a pass clipped to a CellBox finds
/// the entries of each row of the box by binary search (cell_pass.hpp):
/// the collide pass and the stream region pass, which the overlapped
/// step runs on a rank's inner box and then on the shell around it.
struct CellClass {
  std::vector<CellSpan> spans;    ///< bulk-fast runs, ascending by cell
  std::vector<i64> slow;          ///< non-solid cells needing pull_value
  std::vector<i64> fluid_slow;    ///< the Fluid-flagged subset of `slow`
  std::vector<i64> solid;         ///< Solid-flagged cells
  std::vector<i64> inlet;         ///< Inlet-flagged cells (finish_stream)

  std::vector<i64> span_z;        ///< spans index of first span at z
  std::vector<i64> slow_z;        ///< slow index of first cell at z
  std::vector<i64> fluid_slow_z;  ///< fluid_slow index of first cell at z
  std::vector<i64> solid_z;       ///< solid index of first cell at z

  i64 bulk_cells = 0;             ///< total cells covered by `spans`

  /// Rebuilds the classification from the lattice's current flags. This
  /// is the only place that scans neighbor flags; every per-step kernel
  /// iterates the lists built here.
  void build(const Lattice& lat);
};

}  // namespace gc::lbm
