#include "gpusim/bus.hpp"

namespace gc::gpusim {

BusSpec BusSpec::agp8x() {
  // Peak figures from Section 3; setup costs calibrated so the per-step
  // GPU<->CPU communication of Table 1 (13 ms with one neighbor, ~50 ms
  // with four) is reproduced: read-back initialization dominates.
  return BusSpec{"AGP 8x", 2.1e9, 133e6, 0.5e-3, 10.0e-3};
}

BusSpec BusSpec::pcie_x16() {
  return BusSpec{"PCI-Express x16", 4.0e9, 4.0e9, 0.2e-3, 0.5e-3};
}

double Bus::download_cost(i64 bytes) const {
  GC_CHECK(bytes >= 0);
  return spec_.down_setup_s + static_cast<double>(bytes) / spec_.down_Bps;
}

double Bus::upload_cost(i64 bytes) const {
  GC_CHECK(bytes >= 0);
  return spec_.up_setup_s + static_cast<double>(bytes) / spec_.up_Bps;
}

double Bus::download_seconds(i64 bytes) {
  const double t = download_cost(bytes);
  bytes_down_ += bytes;
  return t;
}

double Bus::upload_seconds(i64 bytes) {
  const double t = upload_cost(bytes);
  total_up_ += t;
  bytes_up_ += bytes;
  return t;
}

void Bus::reset_ledger() {
  total_up_ = 0.0;
  bytes_down_ = bytes_up_ = 0;
}

}  // namespace gc::gpusim
