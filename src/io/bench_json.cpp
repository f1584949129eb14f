#include "io/bench_json.hpp"

namespace gc::io {

namespace {

/// AA: the fixups of one step, a read and a write per rule link.
double aa_fixup_bytes(const lbm::Lattice& lat) {
  return 2.0 * static_cast<double>(lat.cell_class().rule_links) *
         sizeof(Real);
}

}  // namespace

double split_step_traffic_bytes(const lbm::Lattice& lat) {
  const double plane_set =
      static_cast<double>(lbm::Q) * static_cast<double>(lat.num_cells()) *
      sizeof(Real);
  if (lat.storage_mode() == lbm::StorageMode::DoubleBuffer) {
    // collide: read + write every plane; stream: read front, write back.
    return 4.0 * plane_set;
  }
  if (lat.storage_mode() == lbm::StorageMode::Sparse) {
    // The dense pattern shrunk to the active cells: solid cells have no
    // storage, so neither pass ever touches them.
    return 4.0 * static_cast<double>(lbm::Q) *
           static_cast<double>(lat.sparse_active_cells()) * sizeof(Real);
  }
  // AA: the advancing collide reads + writes every plane in place; the
  // stream is a parity flip plus one read and one write per rule link.
  return 2.0 * plane_set + aa_fixup_bytes(lat);
}

double fused_step_traffic_bytes(const lbm::Lattice& lat) {
  const double plane_set =
      static_cast<double>(lbm::Q) * static_cast<double>(lat.num_cells()) *
      sizeof(Real);
  if (lat.storage_mode() == lbm::StorageMode::DoubleBuffer) {
    return 2.0 * plane_set;
  }
  if (lat.storage_mode() == lbm::StorageMode::Sparse) {
    return 2.0 * static_cast<double>(lbm::Q) *
           static_cast<double>(lat.sparse_active_cells()) * sizeof(Real);
  }
  return 2.0 * plane_set + aa_fixup_bytes(lat);
}

}  // namespace gc::io
