#include "tracer/tracer.hpp"

#include <algorithm>

namespace gc::tracer {

using lbm::C;
using lbm::CellType;
using lbm::FaceBc;
using lbm::Q;

TracerCloud::TracerCloud(TracerParams params) : rng_(params.seed) {}

void TracerCloud::release(Int3 site, int count) {
  GC_CHECK(count >= 0);
  particles_.insert(particles_.end(), static_cast<std::size_t>(count), site);
}

void TracerCloud::step(const lbm::Lattice& lat) {
  const Int3 d = lat.dim();
  std::vector<Int3> kept;
  kept.reserve(particles_.size());

  for (Int3 p : particles_) {
    const i64 cell = lat.idx(p);

    // Sample a link with probability f_i / rho.
    Real rho = 0;
    Real f[Q];
    for (int i = 0; i < Q; ++i) {
      f[i] = std::max(Real(0), lat.f(i, cell));  // guard tiny negatives
      rho += f[i];
    }
    int dir = 0;
    if (rho > Real(0)) {
      const Real r = Real(rng_.uniform()) * rho;
      Real acc = 0;
      for (int i = 0; i < Q; ++i) {
        acc += f[i];
        if (r < acc) {
          dir = i;
          break;
        }
      }
    }

    Int3 q = p + C[dir];
    bool escaped = false;
    for (int a = 0; a < 3; ++a) {
      if (q[a] >= 0 && q[a] < d[a]) continue;
      const auto face =
          static_cast<lbm::Face>(2 * a + (q[a] < 0 ? 0 : 1));
      switch (lat.face_bc(face)) {
        case FaceBc::Periodic:
          q[a] = (q[a] + d[a]) % d[a];
          break;
        case FaceBc::Outflow:
        case FaceBc::Inlet:
          escaped = true;
          break;
        default:
          q[a] = p[a];  // reflect off walls / slip faces
          break;
      }
    }
    if (escaped) {
      ++escaped_;
      continue;
    }
    if (lat.flag(q) == CellType::Solid) {
      q = p;  // the hop is blocked by a building
    }
    kept.push_back(q);
  }
  particles_.swap(kept);
}

void TracerCloud::deposit(const lbm::Lattice& lat,
                          std::vector<float>& density) const {
  density.assign(static_cast<std::size_t>(lat.num_cells()), 0.0f);
  for (const Int3& p : particles_) {
    density[static_cast<std::size_t>(lat.idx(p))] += 1.0f;
  }
}

}  // namespace gc::tracer
