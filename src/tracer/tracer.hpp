// Tracer-particle dispersion (Section 5, after Lowe & Succi's
// "go with the flow" method): pollution tracers sit on lattice sites and
// hop along lattice links with transition probabilities taken from the
// LBM velocity distributions, p_i = f_i / rho.
#pragma once

#include <vector>

#include "lbm/lattice.hpp"
#include "util/rng.hpp"

namespace gc::tracer {

struct TracerParams {
  u64 seed = 7;
};

class TracerCloud {
 public:
  explicit TracerCloud(TracerParams params = TracerParams{});

  /// Releases `count` particles at a lattice site.
  void release(Int3 site, int count);

  i64 num_particles() const { return static_cast<i64>(particles_.size()); }
  i64 num_escaped() const { return escaped_; }
  const std::vector<Int3>& particles() const { return particles_; }

  /// One dispersion step: every particle samples a link with probability
  /// f_i / rho and hops along it. Particles leaving the domain through
  /// Outflow/Inlet faces are removed (counted as escaped); other faces
  /// reflect. Solid targets cancel the hop.
  void step(const lbm::Lattice& lat);

  /// Accumulates particle counts onto a per-cell density grid.
  void deposit(const lbm::Lattice& lat, std::vector<float>& density) const;

 private:
  Rng rng_;
  std::vector<Int3> particles_;
  i64 escaped_ = 0;
};

}  // namespace gc::tracer
