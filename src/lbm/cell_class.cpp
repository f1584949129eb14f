#include "lbm/cell_class.hpp"

#include "lbm/lattice.hpp"

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

  for (int z = 0; z < d.z; ++z) {
    span_z[static_cast<std::size_t>(z)] = static_cast<i64>(spans.size());
    slow_z[static_cast<std::size_t>(z)] = static_cast<i64>(slow.size());
    fluid_slow_z[static_cast<std::size_t>(z)] =
        static_cast<i64>(fluid_slow.size());
    solid_z[static_cast<std::size_t>(z)] = static_cast<i64>(solid.size());

    const bool z_interior = z >= 1 && z < d.z - 1;
    for (int y = 0; y < d.y; ++y) {
      const bool row_interior = z_interior && y >= 1 && y < d.y - 1;
      i64 open = -1;  // first cell of the span currently being extended
      i64 cell = lat.idx(0, y, z);
      for (int x = 0; x < d.x; ++x, ++cell) {
        const u8 t = flags[static_cast<std::size_t>(cell)];
        bool fast = row_interior && x >= 1 && x < d.x - 1 && t == fluid;
        if (fast) {
          for (int i = 1; i < Q; ++i) {
            if (flags[static_cast<std::size_t>(cell + shift[i])] != fluid) {
              fast = false;
              break;
            }
          }
        }
        if (fast) {
          if (open < 0) open = cell;
          ++bulk_cells;
          continue;
        }
        if (open >= 0) {
          spans.push_back({open, static_cast<i32>(cell - open)});
          open = -1;
        }
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
      if (open >= 0) {
        const i64 row_end = lat.idx(0, y, z) + d.x;
        spans.push_back({open, static_cast<i32>(row_end - open)});
      }
    }
  }
  span_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(spans.size());
  slow_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(slow.size());
  fluid_slow_z[static_cast<std::size_t>(d.z)] =
      static_cast<i64>(fluid_slow.size());
  solid_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(solid.size());
}

}  // namespace gc::lbm
