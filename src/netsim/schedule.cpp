#include "netsim/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace gc::netsim {

Int3 NodeGrid::coords(int node) const {
  GC_CHECK(node >= 0 && node < num_nodes());
  const int x = node % dims.x;
  const int rest = node / dims.x;
  return {x, rest % dims.y, rest / dims.y};
}

const std::array<Int3, 12>& diagonal_offsets() {
  static const std::array<Int3, 12> offsets = [] {
    std::array<Int3, 12> out{};
    std::size_t n = 0;
    for (int a = 0; a < 3; ++a) {
      for (int b = a + 1; b < 3; ++b) {
        for (int sa = -1; sa <= 1; sa += 2) {
          for (int sb = -1; sb <= 1; sb += 2) {
            Int3 off{0, 0, 0};
            off[a] = sa;
            off[b] = sb;
            out[n++] = off;
          }
        }
      }
    }
    return out;
  }();
  return offsets;
}

int face_toward(Int3 off) {
  int face = -1;
  for (int a = 0; a < 3; ++a) {
    if (off[a] == 0) continue;
    GC_CHECK_MSG(face < 0, "grid offset " << off << " is not axial");
    face = 2 * a + (off[a] > 0 ? 1 : 0);
  }
  GC_CHECK_MSG(face >= 0, "grid offset " << off << " is not axial");
  return face;
}

NodeGrid NodeGrid::arrange_2d(int n) {
  GC_CHECK(n >= 1);
  // Largest divisor pair (w, h) with w >= h and w/h minimal.
  int best_h = 1;
  for (int h = 1; h * h <= n; ++h) {
    if (n % h == 0) best_h = h;
  }
  return NodeGrid{Int3{n / best_h, best_h, 1}};
}

NodeGrid NodeGrid::arrange_3d(int n) {
  GC_CHECK(n >= 1);
  // Search divisor triples minimizing surface area of the arrangement.
  NodeGrid best{Int3{n, 1, 1}};
  long best_score = 2L * (long(n) * 1 + long(n) * 1 + 1);
  for (int a = 1; a * a * a <= n; ++a) {
    if (n % a) continue;
    const int rest = n / a;
    for (int b = a; b * b <= rest; ++b) {
      if (rest % b) continue;
      const int c = rest / b;
      const long score = 2L * (long(a) * b + long(b) * c + long(a) * c);
      if (score < best_score) {
        best_score = score;
        best = NodeGrid{Int3{c, b, a}};  // largest extent along x
      }
    }
  }
  return best;
}

CommSchedule CommSchedule::pairwise(const NodeGrid& grid) {
  CommSchedule s;
  s.grid = grid;
  for (int axis = 0; axis < 3; ++axis) {
    const int extent = grid.dims[axis];
    if (extent < 2) continue;
    s.axis_step_begin[axis] = static_cast<int>(s.steps.size());

    // Step A: even coordinates exchange with their minus neighbor.
    std::vector<ExchangePair> minus_step;
    // Step B: even coordinates exchange with their plus neighbor.
    std::vector<ExchangePair> plus_step;

    const int n = grid.num_nodes();
    for (int node = 0; node < n; ++node) {
      const Int3 c = grid.coords(node);
      if (c[axis] % 2 != 0) continue;
      if (c[axis] - 1 >= 0) {
        Int3 m = c;
        m[axis] -= 1;
        minus_step.push_back(ExchangePair{grid.id(m), node});
      }
      if (c[axis] + 1 < extent) {
        Int3 p = c;
        p[axis] += 1;
        plus_step.push_back(ExchangePair{node, grid.id(p)});
      }
    }
    s.steps.push_back(std::move(minus_step));
    s.steps.push_back(std::move(plus_step));
  }
  return s;
}

bool CommSchedule::pairs_disjoint_within_steps() const {
  for (const auto& step : steps) {
    std::set<int> seen;
    for (const ExchangePair& p : step) {
      if (!seen.insert(p.a).second) return false;
      if (!seen.insert(p.b).second) return false;
    }
  }
  return true;
}

bool CommSchedule::covers_all_axial_neighbors() const {
  std::set<std::pair<int, int>> covered;
  for (const auto& step : steps) {
    for (const ExchangePair& p : step) {
      const auto key = std::minmax(p.a, p.b);
      if (!covered.insert(key).second) return false;  // duplicate coverage
    }
  }
  const int n = grid.num_nodes();
  for (int node = 0; node < n; ++node) {
    const Int3 c = grid.coords(node);
    for (int axis = 0; axis < 3; ++axis) {
      Int3 q = c;
      q[axis] += 1;
      if (!grid.contains(q)) continue;
      if (!covered.count({node, grid.id(q)})) return false;
    }
  }
  return true;
}

namespace {

/// Step index (within the schedule) in which `from` and `to` — axially
/// adjacent along `axis` — exchange. Returns -1 if never.
int find_exchange_step(const CommSchedule& s, int from, int to, int axis) {
  const int begin = s.axis_step_begin[axis];
  if (begin < 0) return -1;
  const auto want = std::minmax(from, to);
  for (int k = begin; k < begin + 2; ++k) {
    for (const ExchangePair& p : s.steps[static_cast<std::size_t>(k)]) {
      if (std::minmax(p.a, p.b) == want) return k;
    }
  }
  return -1;
}

}  // namespace

std::vector<IndirectRoute> plan_indirect_routes(const CommSchedule& sched) {
  std::vector<IndirectRoute> routes;
  const NodeGrid& g = sched.grid;
  const int n = g.num_nodes();

  for (int src = 0; src < n; ++src) {
    const Int3 c = g.coords(src);
    for (const Int3 off : diagonal_offsets()) {
      const Int3 dstc = c + off;
      if (!g.contains(dstc)) continue;
      const int dst = g.id(dstc);

      // Hop 1 along the lower axis (its steps come first), hop 2 along the
      // higher axis — guarantees first_step < second_step.
      const int a = off.x != 0 ? 0 : 1;
      const int b = off.z != 0 ? 2 : 1;
      Int3 viac = c;
      viac[a] += off[a];
      GC_CHECK(g.contains(viac));
      const int via = g.id(viac);

      const int s1 = find_exchange_step(sched, src, via, a);
      const int s2 = find_exchange_step(sched, via, dst, b);
      GC_CHECK_MSG(s1 >= 0 && s2 >= 0 && s1 < s2,
                   "indirect route ordering violated for nodes "
                       << src << "->" << via << "->" << dst);
      routes.push_back(IndirectRoute{src, via, dst, s1, s2});
    }
  }
  return routes;
}

}  // namespace gc::netsim
