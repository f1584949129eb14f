#include "gpusim/perf_model.hpp"

#include <algorithm>

namespace gc::gpusim {

GpuSpec GpuSpec::geforce_fx5800_ultra() {
  GpuSpec s;
  s.name = "GeForce FX 5800 Ultra";
  s.pixel_pipes = 4;
  s.core_clock_hz = 500e6;
  s.flops_per_pipe_per_cycle = 8;  // 4-wide vector multiply-add
  s.tex_bandwidth_Bps = 16.0e9;    // 128-bit DDR2 @ 500 MHz
  s.texture_memory_bytes = i64(128) * 1024 * 1024;
  s.usable_fraction = 86.0 / 128.0;
  s.pass_overhead_s = 60e-6;
  s.efficiency = 0.30;  // calibrated: 80^3 D3Q19 step ~= 214 ms (Table 1)
  return s;
}

GpuSpec GpuSpec::geforce_fx5900_ultra() {
  GpuSpec s = geforce_fx5800_ultra();
  s.name = "GeForce FX 5900 Ultra";
  s.core_clock_hz = 450e6;
  s.tex_bandwidth_Bps = 27.2e9;  // 256-bit bus
  s.texture_memory_bytes = i64(256) * 1024 * 1024;
  // The Section 4.2 predecessor port (Li et al.) predates the cluster
  // code's optimizations; its achieved fraction of peak was lower —
  // calibrated to the paper's "about 8 times a P4 2.53 GHz" claim.
  s.efficiency = 0.18;
  return s;
}

GpuSpec GpuSpec::geforce_6800_ultra() {
  GpuSpec s;
  s.name = "GeForce 6800 Ultra";
  s.pixel_pipes = 16;
  s.core_clock_hz = 400e6;
  s.flops_per_pipe_per_cycle = 8;  // ~40 GFlops observed (Section 1)
  s.tex_bandwidth_Bps = 35.2e9;    // Section 1
  s.texture_memory_bytes = i64(256) * 1024 * 1024;
  s.usable_fraction = 86.0 / 128.0;
  s.pass_overhead_s = 40e-6;
  s.efficiency = 0.30;
  return s;
}

double GpuPerfModel::pass_seconds(i64 fragments, int arith_instructions,
                                  i64 tex_fetches, i64 bytes_written) const {
  GC_CHECK(fragments >= 0 && arith_instructions >= 0 && tex_fetches >= 0 &&
           bytes_written >= 0);
  const double flops = static_cast<double>(fragments) * arith_instructions *
                       4.0;  // vector instruction = 4 scalar flops
  const double compute_s =
      flops / (spec_.peak_gflops() * 1e9 * spec_.efficiency);
  // Texture fetch traffic (16 B/texel) + pbuffer write + copy-to-texture
  // (write + read + write: the Section 2 step-3 copy doubles the traffic).
  const double bytes =
      static_cast<double>(tex_fetches) * 16.0 + 3.0 * bytes_written;
  const double memory_s = bytes / (spec_.tex_bandwidth_Bps * spec_.efficiency);
  return spec_.pass_overhead_s + std::max(compute_s, memory_s);
}

}  // namespace gc::gpusim
