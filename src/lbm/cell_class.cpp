#include "lbm/cell_class.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "lbm/lattice.hpp"
#include "lbm/stream.hpp"

namespace gc::lbm {

void CellClass::build(const Lattice& lat) {
  const Int3 d = lat.dim();

  spans.clear();
  slow.clear();
  fluid_slow.clear();
  inlet.clear();
  slow_links.clear();
  span_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  fluid_slow_z.assign(static_cast<std::size_t>(d.z) + 1, 0);
  bulk_cells = 0;
  rule_links = 0;
  const bool aa = lat.storage_mode() == StorageMode::AA;

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
  // The links of p whose pull needs a rule, its pulls wrapped as the pull
  // rule wraps them; a fluid cell with none is bulk.
  auto rule_mask = [&](Int3 p) {
    u32 mask = 0;
    for (int i = 0; i < Q; ++i) {
      Int3 src = p - C[i];
      if (detail::resolve_periodic(src_of, src) >= 0 ||
          lat.flag(src) != CellType::Fluid) {
        mask |= u32(1) << i;
      }
    }
    return mask;
  };

  // Under AA the reflected direction of each curved link is a rule link
  // of its cell, the slot its Bouzidi value is written to. The links'
  // (cell, index) pairs in cell order are walked beside the scan, which
  // visits every cell in order; a link on a solid cell keeps slot -1.
  const std::vector<CurvedLink>& links = lat.curved_links();
  curved_at.assign(aa ? links.size() : 0, -1);
  std::vector<std::pair<i64, std::size_t>> curved;
  for (std::size_t k = 0; k < curved_at.size(); ++k) {
    curved.emplace_back(links[k].cell, k);
  }
  std::sort(curved.begin(), curved.end());
  auto next_curved = curved.begin();

  for (int z = 0; z < d.z; ++z) {
    span_z[static_cast<std::size_t>(z)] = static_cast<i64>(spans.size());
    slow_z[static_cast<std::size_t>(z)] = static_cast<i64>(slow.size());
    fluid_slow_z[static_cast<std::size_t>(z)] =
        static_cast<i64>(fluid_slow.size());

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
        const auto cell_curved = next_curved;
        u32 curved_mask = 0;
        for (; next_curved != curved.end() && next_curved->first == cell;
             ++next_curved) {
          curved_mask |= u32(1) << OPP[links[next_curved->second].dir];
        }
        // A cell with a curved link is slow, whatever its neighbours.
        const bool candidate = t == fluid && curved_mask == 0;
        bool fast = false;
        if (candidate && row_interior && x_interior) {
          fast = true;
          for (int i = 1; i < Q; ++i) {
            if (flags[static_cast<std::size_t>(cell + shift[i])] != fluid) {
              fast = false;
              break;
            }
          }
        } else if (candidate && row_open && open(0, x)) {
          fast = rule_mask(Int3{x, y, z}) == 0;
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
        if (t == solid_flag) continue;
        slow.push_back(cell);
        if (aa) {
          const u32 mask = rule_mask(Int3{x, y, z}) | curved_mask;
          slow_links.push_back({mask, static_cast<u32>(rule_links)});
          for (auto c = cell_curved; c != next_curved; ++c) {
            const u32 below = (u32(1) << OPP[links[c->second].dir]) - 1;
            curved_at[c->second] = rule_links + std::popcount(mask & below);
          }
          rule_links += std::popcount(mask);
        }
        if (t == fluid) {
          fluid_slow.push_back(cell);
        } else if (t == inlet_flag) {
          inlet.push_back(cell);
        }
      }
      close_run(cell);
    }
  }
  span_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(spans.size());
  slow_z[static_cast<std::size_t>(d.z)] = static_cast<i64>(slow.size());
  fluid_slow_z[static_cast<std::size_t>(d.z)] =
      static_cast<i64>(fluid_slow.size());
  GC_CHECK_MSG(rule_links <= std::numeric_limits<u32>::max(),
               "AA rule links overflow their u32 offsets: " << rule_links);
}

}  // namespace gc::lbm
