// Analytic distribution traffic of one host LBM step, per storage mode.
// bench_suite reports it as lbm.bytes_per_step (and derives its GB/s and
// share of the measured triad from it); bench_kernels attaches it to its
// cases as the bytes_per_step counter.
//
// bytes_per_step is the analytic main-memory distribution traffic of the
// timed hot loop (reads + writes of the f-planes), not a hardware
// counter: it is what the storage mode determines, and the quantity the
// AA-pattern layout halves.
#pragma once

#include "lbm/lattice.hpp"

namespace gc::io {

/// Analytic f-plane main-memory traffic of one step of the split
/// collide+stream path, over the non-solid cells, which are the cells
/// the passes visit in every mode (collide reads+writes every plane;
/// Sparse streaming reads the front and writes the back buffer, AA
/// streams in place via the parity flip, reading and writing only the
/// slow cells' rule links).
double split_step_traffic_bytes(const lbm::Lattice& lat);

/// Same for the fused stream+collide path (one read + one write of every
/// plane in every mode, plus the AA rule links; AA halves the footprint,
/// not the fused traffic).
double fused_step_traffic_bytes(const lbm::Lattice& lat);

}  // namespace gc::io
