// GPU specifications and the per-pass timing model. The functional
// simulator executes fragment programs exactly; this model answers "how
// long would that pass have taken on the real card" — the number the
// cluster simulator feeds into Table 1.
#pragma once

#include <string>

#include "util/common.hpp"

namespace gc::gpusim {

struct GpuSpec {
  std::string name;
  int pixel_pipes;               ///< parallel fragment processors
  double core_clock_hz;
  int flops_per_pipe_per_cycle;  ///< 4-wide vector MAD = 8 flops
  double tex_bandwidth_Bps;      ///< on-board texture memory bandwidth
  i64 texture_memory_bytes;
  double usable_fraction;        ///< fraction of memory usable for data
  double pass_overhead_s;        ///< per-render-pass fixed cost (state
                                 ///< change, pbuffer bind, copy-to-texture
                                 ///< setup) — dominates small passes
  double efficiency;             ///< achieved fraction of theoretical peak
                                 ///< for real shaders (driver + pipeline
                                 ///< bubbles); calibrated on the paper's
                                 ///< measured 214 ms/step at 80^3

  double peak_gflops() const {
    return pixel_pipes * core_clock_hz * flops_per_pipe_per_cycle / 1e9;
  }

  /// The card in the paper's cluster ($399, April 2003): 16 GFlops peak
  /// fragment throughput, 128 MB with 86 MB usable.
  static GpuSpec geforce_fx5800_ultra();
  /// The card of the single-GPU predecessor work (Section 4.2).
  static GpuSpec geforce_fx5900_ultra();
  /// The 40-GFlops card the paper cites as "at least 2.5x faster".
  static GpuSpec geforce_6800_ultra();
};

class GpuPerfModel {
 public:
  explicit GpuPerfModel(GpuSpec spec) : spec_(std::move(spec)) {}

  const GpuSpec& spec() const { return spec_; }

  /// Simulated duration of one render pass shading `fragments` fragments,
  /// each executing `arith_instructions` vector instructions and issuing
  /// `tex_fetches` texture fetches, then writing `bytes_written` (pbuffer
  /// write + copy-to-texture for reuse, Section 2 step 3).
  double pass_seconds(i64 fragments, int arith_instructions, i64 tex_fetches,
                      i64 bytes_written) const;

 private:
  GpuSpec spec_;
};

}  // namespace gc::gpusim
