// Precomputed cell classification for the stream/collide hot path.
// One pass over the lattice (rebuilt only when flags, face BCs or the
// storage mode change, see Lattice::cell_class) partitions every
// non-solid cell into bulk-fast / slow and run-length-encodes the
// bulk-fast cells into per-row spans, so the per-step kernels never
// re-scan the 18 neighbor flags of every cell — the sparse-indexing
// optimization of Habich et al. and Tomczak & Szafran applied to our host
// kernels. A pull across a periodic face is a plain copy from the wrapped
// cell, so cells on a periodic face are bulk too; only cells with a link
// that needs a rule (a wall, inlet or outflow face, or a non-fluid
// source) are slow, and so is a cell with a curved link. Under AA
// storage each slow cell also records which of its links those are (its
// rule links, the host form of the paper's per-slice boundary
// rectangles, §4.2): the parity flip streams every other link, so only
// rule links need the pull rule, or the Bouzidi rule of a curved link.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace gc::lbm {

class Lattice;

/// One maximal run of bulk-fast cells inside a single lattice row
/// (constant y and z, consecutive x). `begin` is the linear index of the
/// first cell; the run never crosses a row boundary, and the x-wrapping
/// cells of a periodic x axis (x = 0 and x = d.x - 1) are runs of their
/// own, so every cell of a span pulls direction i from the source of the
/// first cell plus its offset in the span. The AA collide describes its
/// runs of slow cells the same way (cell_pass.hpp).
struct CellSpan {
  i64 begin;
  i32 len;
  /// The span's pulls wrap across a periodic face, so their sources do
  /// not lie at the interior's constant offsets (cell_pass.hpp).
  bool wraps;
};

/// Static per-cell classification of a Lattice:
///   - bulk-fast: fluid cells whose 18 pull sources, wrapped across
///     periodic faces, are all in-domain fluid cells, with no link across
///     a non-periodic face — streaming is a plain shifted copy and
///     collision needs no flag test. Stored as spans for branch-free
///     tight loops.
///   - slow: every other non-solid cell (cells on a wall, inlet or
///     outflow face, cells adjacent to solids/inlets/outflows,
///     Inlet/Outflow-flagged cells, and under AA the cells of curved
///     links) — these take the general pull_value path, under AA on
///     their rule links only.
/// Solid cells (bounce-back obstacles) are in no list: no pass visits
/// them, and the lattice's accessors read them as 0. Every list is sorted
/// by cell, and the `*_z` arrays partition each one by z-slice (size
/// dim.z + 1), so pooled kernels hand out contiguous z-chunks without
/// re-scanning, and a pass clipped to a CellBox finds
/// the entries of each row of the box by binary search (cell_pass.hpp):
/// the collide pass and the stream region pass, which the overlapped
/// step runs on a rank's inner box and then on the shell around it.
struct CellClass {
  /// The rule links of one slow cell (AA storage): bit i of `mask` is set
  /// when the pull source of direction i, wrapped across periodic faces as
  /// the pull rule wraps it, lies outside the domain or is not a Fluid
  /// cell — the bulk test applied per link — or when i is the reflected
  /// direction OPP[dir] of one of the cell's curved links, whatever the
  /// far cell's flag. `at` is the offset of the cell's first rule link in
  /// the AA fixup scratch, which holds one value per rule link, in cell
  /// order and then direction order.
  struct RuleLinks {
    u32 mask;
    u32 at;
  };

  std::vector<CellSpan> spans;    ///< bulk-fast runs, ascending by cell
  std::vector<i64> slow;          ///< non-solid cells needing pull_value
  std::vector<i64> fluid_slow;    ///< the Fluid-flagged subset of `slow`
  std::vector<i64> inlet;         ///< Inlet-flagged cells (finish_stream)
  std::vector<RuleLinks> slow_links;  ///< per `slow` entry; AA only, else empty
  /// Per curved link (Lattice::curved_links, AA only): the fixup scratch
  /// offset of its reflected direction, or -1 on a solid cell, which no
  /// pass writes.
  std::vector<i64> curved_at;

  std::vector<i64> span_z;        ///< spans index of first span at z
  std::vector<i64> slow_z;        ///< slow index of first cell at z
  std::vector<i64> fluid_slow_z;  ///< fluid_slow index of first cell at z

  i64 bulk_cells = 0;             ///< total cells covered by `spans`
  i64 rule_links = 0;             ///< set bits over `slow_links`

  /// Rebuilds the classification from the lattice's current flags and
  /// face BCs, with the rule links when the lattice is AA. This is the
  /// only place that scans neighbor flags; every per-step kernel iterates
  /// the lists built here.
  void build(const Lattice& lat);
};

}  // namespace gc::lbm
