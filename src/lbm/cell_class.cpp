#include "lbm/cell_class.hpp"

#include "lbm/lattice.hpp"
#include "lbm/stream.hpp"

namespace gc::lbm {

void CellClass::build(const Lattice& lat) {
  const Int3 d = lat.dim();

  spans.clear();
  slow.clear();
  fluid_slow.clear();
  solid.clear();
  inlet.clear();
  span_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  fluid_slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  solid_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  bulk_cells = 0;

  const i64 sx = 1, sy = d.x, sz = i64(d.x) * d.y;
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) {
    shift[i] = -(C[i].x * sx + C[i].y * sy + C[i].z * sz);
  }

  const auto& flags = lat.flags();
  const u8 fluid = static_cast<u8>(CellType::Fluid);
  const u8 solid_flag = static_cast<u8>(CellType::Solid);
  const u8 inlet_flag = static_cast<u8>(CellType::Inlet);

  // Coordinate c of axis a may hold a bulk cell when every face it lies
  // on is periodic; a link across any other face needs a rule.
  const detail::LatticeSource src_of{lat};
  auto open = [&](int a, int c) {
    return (c > 0 || src_of.face_bc(2 * a) == FaceBc::Periodic) &&
           (c < d[a] - 1 || src_of.face_bc(2 * a + 1) == FaceBc::Periodic);
  };
  // A cell on a periodic face: its pulls wrap as the pull rule wraps them.
  auto wrapped_sources_fluid = [&](Int3 p) {
    for (int i = 1; i < Q; ++i) {
      Int3 src = p - C[i];
      if (detail::resolve_periodic(src_of, src) >= 0 ||
          lat.flag(src) != CellType::Fluid) {
        return false;
      }
    }
    return true;
  };

  for (int z = 0; z < d.z; ++z) {
    span_z[static_cast<std::size_t>(z)] = static_cast<i64>(spans.size());
    slow_z[static_cast<std::size_t>(z)] = static_cast<i64>(slow.size());
    fluid_slow_z[static_cast<std::size_t>(z)] =
        static_cast<i64>(fluid_slow.size());
    solid_z[static_cast<std::size_t>(z)] = static_cast<i64>(solid.size());

    const bool z_interior = z >= 1 && z < d.z - 1;
    for (int y = 0; y < d.y; ++y) {
      const bool row_interior = z_interior && y >= 1 && y < d.y - 1;
      const bool row_open = open(2, z) && open(1, y);
      i64 run = -1;  // first cell of the span currently being extended
      auto close_run = [&](i64 end) {
        if (run >= 0) {
          spans.push_back({run, static_cast<i32>(end - run), !row_interior});
          run = -1;
        }
      };
      i64 cell = lat.idx(0, y, z);
      for (int x = 0; x < d.x; ++x, ++cell) {
        const u8 t = flags[static_cast<std::size_t>(cell)];
        const bool x_interior = x >= 1 && x < d.x - 1;
        bool fast = false;
        if (t == fluid && row_interior && x_interior) {
          fast = true;
          for (int i = 1; i < Q; ++i) {
            if (flags[static_cast<std::size_t>(cell + shift[i])] != fluid) {
              fast = false;
              break;
            }
          }
        } else if (t == fluid && row_open && open(0, x)) {
          fast = wrapped_sources_fluid(Int3{x, y, z});
        }
        if (fast) {
          ++bulk_cells;
          if (x_interior) {
            if (run < 0) run = cell;
          } else {  // its x pulls wrap: a span of its own
            close_run(cell);
            spans.push_back({cell, 1, true});
          }
          continue;
        }
        close_run(cell);
        if (t == solid_flag) {
          solid.push_back(cell);
        } else {
          slow.push_back(cell);
          if (t == fluid) {
            fluid_slow.push_back(cell);
          } else if (t == inlet_flag) {
            inlet.push_back(cell);
          }
        }
      }
      close_run(cell);
    }
  }
  span_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(spans.size());
  slow_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(slow.size());
  fluid_slow_z[static_cast<std::size_t>(d.z)] =
      static_cast<i64>(fluid_slow.size());
  solid_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(solid.size());
}

}  // namespace gc::lbm
