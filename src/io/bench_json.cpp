#include "io/bench_json.hpp"

namespace gc::io {

namespace {

/// One read or one write of all 19 values of every non-solid cell: the
/// cells the passes visit, in every storage mode.
double plane_set_bytes(const lbm::CellClass& cc) {
  const i64 cells = cc.bulk_cells + static_cast<i64>(cc.slow.size());
  return static_cast<double>(lbm::Q) * static_cast<double>(cells) *
         sizeof(Real);
}

/// The AA fixups of one step, a read and a write per rule link; 0 in the
/// other modes, whose classification records no rule link.
double aa_fixup_bytes(const lbm::CellClass& cc) {
  return 2.0 * static_cast<double>(cc.rule_links) * sizeof(Real);
}

}  // namespace

double split_step_traffic_bytes(const lbm::Lattice& lat) {
  // The collide reads + writes every plane. A Sparse stream reads the
  // front and writes the back buffer; AA streams by a parity flip plus
  // its fixups.
  const lbm::CellClass& cc = lat.cell_class();
  const double passes = lat.storage_mode() == lbm::StorageMode::AA ? 2.0 : 4.0;
  return passes * plane_set_bytes(cc) + aa_fixup_bytes(cc);
}

double fused_step_traffic_bytes(const lbm::Lattice& lat) {
  const lbm::CellClass& cc = lat.cell_class();
  return 2.0 * plane_set_bytes(cc) + aa_fixup_bytes(cc);
}

}  // namespace gc::io
