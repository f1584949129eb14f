// Host<->GPU bus model (Section 3): AGP 8x is asymmetric — 2.1 GB/s
// downstream (host to GPU) but only 133 MB/s upstream (GPU read-back),
// which is why the paper gathers border data on-GPU and reads it back in
// a single operation. The PCI-Express profile models the projected
// 4 GB/s symmetric bus of late 2004.
#pragma once

#include <string>

#include "util/common.hpp"

namespace gc::gpusim {

struct BusSpec {
  std::string name;
  double down_Bps;     ///< host -> GPU bandwidth (bytes/s)
  double up_Bps;       ///< GPU -> host bandwidth (bytes/s)
  double down_setup_s; ///< fixed cost to initiate a host->GPU transfer
  double up_setup_s;   ///< fixed cost to initiate a read-back (driver sync,
                       ///< pipeline flush — the dominant term on AGP)

  static BusSpec agp8x();
  static BusSpec pcie_x16();
};

/// Accumulates simulated transfer time over a bus.
class Bus {
 public:
  explicit Bus(BusSpec spec) : spec_(std::move(spec)) {}

  const BusSpec& spec() const { return spec_; }

  /// Time to move `bytes` host -> GPU; accumulates into the ledger.
  double download_seconds(i64 bytes);
  /// Time to move `bytes` GPU -> host; accumulates into the ledger.
  double upload_seconds(i64 bytes);

  /// Pure cost queries (no ledger side effect).
  double download_cost(i64 bytes) const;
  double upload_cost(i64 bytes) const;

  double total_upload_seconds() const { return total_up_; }
  i64 total_download_bytes() const { return bytes_down_; }
  i64 total_upload_bytes() const { return bytes_up_; }
  void reset_ledger();

 private:
  BusSpec spec_;
  double total_up_ = 0.0;
  i64 bytes_down_ = 0;
  i64 bytes_up_ = 0;
};

}  // namespace gc::gpusim
