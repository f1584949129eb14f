#include "gpulbm/packing.hpp"

#include <cmath>

namespace gc::gpulbm {

std::vector<float> pack_slice(const lbm::Lattice& lat, int stack, int z) {
  GC_CHECK(stack >= 0 && stack < NUM_STACKS);
  const Int3 d = lat.dim();
  GC_CHECK(z >= 0 && z < d.z);
  std::vector<float> rgba(static_cast<std::size_t>(d.x) * d.y * 4, 0.0f);
  for (int ch = 0; ch < 4; ++ch) {
    const int dir = dir_at(stack, ch);
    if (dir < 0) continue;
    for (int y = 0; y < d.y; ++y) {
      for (int x = 0; x < d.x; ++x) {
        rgba[(static_cast<std::size_t>(y) * d.x + x) * 4 + ch] =
            static_cast<float>(lat.f(dir, lat.idx(x, y, z)));
      }
    }
  }
  return rgba;
}

void unpack_slice(lbm::Lattice& lat, int stack, int z,
                  const std::vector<float>& rgba) {
  GC_CHECK(stack >= 0 && stack < NUM_STACKS);
  const Int3 d = lat.dim();
  GC_CHECK(z >= 0 && z < d.z);
  GC_CHECK(rgba.size() == static_cast<std::size_t>(d.x) * d.y * 4);
  for (int ch = 0; ch < 4; ++ch) {
    const int dir = dir_at(stack, ch);
    if (dir < 0) continue;
    for (int y = 0; y < d.y; ++y) {
      for (int x = 0; x < d.x; ++x) {
        lat.set_f(dir, lat.idx(x, y, z),
                  rgba[(static_cast<std::size_t>(y) * d.x + x) * 4 + ch]);
      }
    }
  }
}

std::vector<float> pack_flags_slice(const lbm::Lattice& lat, int z) {
  const Int3 d = lat.dim();
  GC_CHECK(z >= 0 && z < d.z);
  std::vector<float> rgba(static_cast<std::size_t>(d.x) * d.y * 4, 0.0f);
  for (int y = 0; y < d.y; ++y) {
    for (int x = 0; x < d.x; ++x) {
      rgba[(static_cast<std::size_t>(y) * d.x + x) * 4] =
          static_cast<float>(static_cast<int>(lat.flag(lat.idx(x, y, z))));
    }
  }
  return rgba;
}

i64 texture_footprint_bytes(Int3 dim) {
  // The paper's single-copy layout: 19 distribution channels (5 RGBA
  // stacks, 80 B/cell), one shared pbuffer/temp stack (16 B/cell), and
  // the density+velocity stack (16 B/cell). Boundary rectangles are
  // negligible. 112 B/cell puts a 128 MB GPU (86 MB usable) at ~92^3,
  // matching Section 2.
  return dim.volume() * 112;
}

int max_cubic_subdomain(i64 usable_bytes) {
  int n = 1;
  while (texture_footprint_bytes(Int3{n + 1, n + 1, n + 1}) <= usable_bytes) {
    ++n;
  }
  return n;
}

}  // namespace gc::gpulbm
