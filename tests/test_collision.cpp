// BGK collision: conservation laws, equilibrium fixed point, Guo forcing,
// and equivalence of the fused stream+collide kernel.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "lbm/cell_pass.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

void randomize_positive(Lattice& lat, u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, W[i] * Real(rng.uniform(0.7, 1.3)));
    }
  }
}

class CollisionTau : public ::testing::TestWithParam<Real> {};

TEST_P(CollisionTau, ConservesMassAndMomentumPerCell) {
  const Real tau = GetParam();
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Real f[Q];
    double rho0 = 0, m0[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      f[i] = W[i] * Real(rng.uniform(0.5, 1.5));
      rho0 += f[i];
      for (int a = 0; a < 3; ++a) m0[a] += f[i] * C[i][a];
    }
    collide_bgk_cell(f, tau, Vec3{});
    double rho1 = 0, m1[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      rho1 += f[i];
      for (int a = 0; a < 3; ++a) m1[a] += f[i] * C[i][a];
    }
    EXPECT_NEAR(rho1, rho0, 1e-5);
    for (int a = 0; a < 3; ++a) EXPECT_NEAR(m1[a], m0[a], 1e-5);
  }
}

TEST_P(CollisionTau, EquilibriumIsFixedPoint) {
  const Real tau = GetParam();
  Real f[Q], g[Q];
  equilibrium_all(Real(1.05), Vec3{0.04f, -0.03f, 0.06f}, f);
  for (int i = 0; i < Q; ++i) g[i] = f[i];
  collide_bgk_cell(g, tau, Vec3{});
  for (int i = 0; i < Q; ++i) {
    EXPECT_NEAR(g[i], f[i], 3e-6) << "i=" << i;
  }
}

TEST_P(CollisionTau, RelaxesTowardEquilibrium) {
  const Real tau = GetParam();
  Real f[Q];
  equilibrium_all(Real(1), Vec3{0.05f, 0, 0}, f);
  f[1] += Real(0.02);  // perturb one direction, breaking equilibrium
  f[2] += Real(0.02);  // symmetric so momentum is unchanged

  // Distance to equilibrium must shrink monotonically for tau > 1/2.
  auto distance = [&f] {
    Real rho = 0;
    Vec3 mom{};
    for (int i = 0; i < Q; ++i) {
      rho += f[i];
      mom.x += f[i] * C[i].x;
      mom.y += f[i] * C[i].y;
      mom.z += f[i] * C[i].z;
    }
    Real feq[Q];
    equilibrium_all(rho, mom / rho, feq);
    double d = 0;
    for (int i = 0; i < Q; ++i) d += std::abs(double(f[i]) - feq[i]);
    return d;
  };
  double prev = distance();
  for (int s = 0; s < 5; ++s) {
    collide_bgk_cell(f, tau, Vec3{});
    const double now = distance();
    EXPECT_LE(now, prev * (1.0 + 1e-6)) << "step " << s;
    prev = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Taus, CollisionTau,
                         ::testing::Values(Real(0.6), Real(0.8), Real(1.0),
                                           Real(1.5), Real(1.9)));

TEST(Collision, GuoForcingAddsMomentum) {
  // One collision with force F adds exactly F to the cell's momentum
  // (Guo's scheme splits it half before, half after; net per step is F).
  const Vec3 F{Real(1e-4), Real(-2e-4), Real(3e-4)};
  Real f[Q];
  equilibrium_all(Real(1), Vec3{}, f);
  double m0[3] = {0, 0, 0};
  for (int i = 0; i < Q; ++i) {
    for (int a = 0; a < 3; ++a) m0[a] += f[i] * C[i][a];
  }
  collide_bgk_cell(f, Real(0.9), F);
  double m1[3] = {0, 0, 0};
  double rho1 = 0;
  for (int i = 0; i < Q; ++i) {
    rho1 += f[i];
    for (int a = 0; a < 3; ++a) m1[a] += f[i] * C[i][a];
  }
  EXPECT_NEAR(rho1, 1.0, 1e-6);  // mass unchanged
  EXPECT_NEAR(m1[0] - m0[0], F.x, 1e-7);
  EXPECT_NEAR(m1[1] - m0[1], F.y, 1e-7);
  EXPECT_NEAR(m1[2] - m0[2], F.z, 1e-7);
}

/// Float rounding of one collide on near-equilibrium values of order
/// w_i <= 1/3: float's unit roundoff is 6e-8 and a collide takes a few
/// dozen rounded operations, so 1e-6 bounds it with room to spare, while a
/// wrong or missing term moves some f_i by 1e-5 or more.
constexpr double kCollideRounding = 1e-6;

/// One BGK collision with Guo forcing, direction by direction in double
/// from C, W and the equilibrium formula: the textbook form the pair form
/// of collide_bgk_cell must reproduce.
void collide_per_direction(const Real f[Q], Real tau, Vec3 force,
                           double out[Q]) {
  double rho = 0, j[3] = {0, 0, 0};
  for (int i = 0; i < Q; ++i) {
    rho += f[i];
    for (int a = 0; a < 3; ++a) j[a] += double(f[i]) * C[i][a];
  }
  double u[3], uu = 0;
  for (int a = 0; a < 3; ++a) {
    u[a] = (j[a] + 0.5 * force[a]) / rho;
    uu += u[a] * u[a];
  }
  const double omega = 1.0 / tau;
  for (int i = 0; i < Q; ++i) {
    double cu = 0, guo = 0;
    for (int a = 0; a < 3; ++a) cu += C[i][a] * u[a];
    for (int a = 0; a < 3; ++a) {
      guo += (3 * (C[i][a] - u[a]) + 9 * cu * C[i][a]) * force[a];
    }
    const double feq = W[i] * rho * (1 + 3 * cu + 4.5 * cu * cu - 1.5 * uu);
    // The same formula as the library's equilibrium(), in float.
    EXPECT_NEAR(equilibrium(i, Real(rho),
                            Vec3{Real(u[0]), Real(u[1]), Real(u[2])}),
                feq, kCollideRounding);
    out[i] = f[i] - omega * (f[i] - feq) + (1 - 0.5 * omega) * W[i] * guo;
  }
}

TEST(Collision, MatchesPerDirectionFormInDouble) {
  // Seeded near-equilibrium cells: rho in [0.9, 1.1], |u_a| <= 0.08 and
  // each f_i within 5% of its equilibrium.
  const Vec3 forces[] = {Vec3{},
                         Vec3{Real(1e-3), Real(-2e-3), Real(1.5e-3)}};
  Rng rng(2718);
  for (const Real tau : {Real(0.6), Real(0.8), Real(1.9)}) {
    for (const Vec3& force : forces) {
      for (int cell = 0; cell < 300; ++cell) {
        const Real rho = Real(rng.uniform(0.9, 1.1));
        const Vec3 u{Real(rng.uniform(-0.08, 0.08)),
                     Real(rng.uniform(-0.08, 0.08)),
                     Real(rng.uniform(-0.08, 0.08))};
        Real f[Q];
        equilibrium_all(rho, u, f);
        for (int i = 0; i < Q; ++i) f[i] *= Real(rng.uniform(0.95, 1.05));
        double want[Q];
        collide_per_direction(f, tau, force, want);
        collide_bgk_cell(f, tau, force);
        for (int i = 0; i < Q; ++i) {
          ASSERT_NEAR(f[i], want[i], kCollideRounding)
              << "tau=" << tau << (force.x != 0 ? " forced" : " unforced")
              << " cell " << cell << " i=" << i;
        }
      }
    }
  }
}

TEST(Collision, RegionVariantMatchesFull) {
  Lattice a(Int3{6, 6, 6}), b(Int3{6, 6, 6});
  randomize_positive(a, 5);
  randomize_positive(b, 5);
  const BgkParams p{Real(0.8), Vec3{}};
  collide_bgk(a, p);
  collide_bgk(b, p, {}, CellBox{Int3{0, 0, 0}, Int3{6, 6, 6}});
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      ASSERT_FLOAT_EQ(a.f(i, c), b.f(i, c));
    }
  }
}

TEST(Collision, RegionVariantTouchesOnlyRegion) {
  // On the Sparse layout, whose collide is in place in one mapping. An AA
  // box collide leaves the cells outside the box un-advanced, so they read
  // through the post-collide mapping only once an exchange rewrites them
  // (collide_pass).
  Lattice lat(Int3{6, 6, 6}, StorageMode::Sparse);
  randomize_positive(lat, 9);
  const Real before = lat.f(1, lat.idx(0, 0, 0));
  collide_bgk(lat, BgkParams{Real(0.8), Vec3{}}, {},
              CellBox{Int3{2, 2, 2}, Int3{4, 4, 4}});
  EXPECT_FLOAT_EQ(lat.f(1, lat.idx(0, 0, 0)), before);
  // A cell inside the region did change.
  Lattice ref(Int3{6, 6, 6}, StorageMode::Sparse);
  randomize_positive(ref, 9);
  EXPECT_NE(lat.f(1, lat.idx(3, 3, 3)), ref.f(1, ref.idx(3, 3, 3)));
}

TEST(Collision, SkipsSolidAndInletCells) {
  Lattice lat(Int3{4, 4, 4});
  randomize_positive(lat, 3);
  lat.set_flag(Int3{1, 1, 1}, CellType::Solid);
  lat.set_flag(Int3{2, 2, 2}, CellType::Inlet);
  const Real fs = lat.f(5, lat.idx(1, 1, 1));
  const Real fi = lat.f(5, lat.idx(2, 2, 2));
  collide_bgk(lat, BgkParams{Real(0.7), Vec3{}});
  EXPECT_FLOAT_EQ(lat.f(5, lat.idx(1, 1, 1)), fs);
  EXPECT_FLOAT_EQ(lat.f(5, lat.idx(2, 2, 2)), fi);
}

TEST(Collision, FusedEquivalentToSeparatePasses) {
  // With g0 = C f0: (S.C)^n f0 has C (S C)^n f0 = (C S)^n g0. So applying
  // one collide to the separate-pass state must match n fused steps from
  // the collided start.
  const Int3 dim{8, 6, 5};
  const BgkParams p{Real(0.8), Vec3{}};
  const int steps = 5;

  Lattice sep(dim);
  sep.init_equilibrium(Real(1), Vec3{});
  // Non-trivial but stable initial condition with an obstacle.
  sep.fill_solid_box(Int3{3, 2, 1}, Int3{5, 4, 3});
  for (i64 c = 0; c < sep.num_cells(); ++c) {
    const Int3 q = sep.coords(c);
    Real f[Q];
    equilibrium_all(Real(1) + Real(0.01) * Real(q.x % 3),
                    Vec3{Real(0.02) * Real(q.y % 2), 0, 0}, f);
    for (int i = 0; i < Q; ++i) sep.set_f(i, c, f[i]);
  }
  Lattice fused(dim);
  fused.fill_solid_box(Int3{3, 2, 1}, Int3{5, 4, 3});
  for (i64 c = 0; c < sep.num_cells(); ++c) {
    for (int i = 0; i < Q; ++i) fused.set_f(i, c, sep.f(i, c));
  }

  // Separate: n x (collide; stream), then one extra collide.
  for (int s = 0; s < steps; ++s) {
    collide_bgk(sep, p);
    stream(sep);
  }
  collide_bgk(sep, p);

  // Fused: pre-collide once, then n fused (stream; collide) steps.
  collide_bgk(fused, p);
  for (int s = 0; s < steps; ++s) fused_stream_collide(fused, p);

  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < sep.num_cells(); ++c) {
      ASSERT_FLOAT_EQ(sep.f(i, c), fused.f(i, c))
          << "i=" << i << " cell=" << c;
    }
  }
}

// ---- lane tiles ------------------------------------------------------------
// The bulk span loop runs BGK on tiles of detail::kTile cells and pads the
// last, partial tile of a span. These tests cut rows into bulk spans of
// every length from 1 to 2 kTile + 1 (one partial tile, whole tiles, and
// whole tiles followed by a partial one) and hold the tiled kernels to
// the one-cell operator. Under AA the collide advances slow cells
// through the same loop, in runs of one row and one fluidness; a walled
// lattice cuts them into runs of every length too.

constexpr int kMaxSpan = 2 * detail::kTile + 1;

/// Random near-equilibrium values at every cell.
void randomize_near_equilibrium(Lattice& lat) {
  Rng rng(17);
  Real f[Q];
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Vec3 u{Real(0.05 * (2 * rng.uniform() - 1)),
                 Real(0.05 * (2 * rng.uniform() - 1)),
                 Real(0.05 * (2 * rng.uniform() - 1))};
    equilibrium_all(Real(1 + 0.02 * (rng.uniform() - 0.5)), u, f);
    for (int i = 0; i < Q; ++i) {
      lat.set_f(i, c, f[i] * Real(rng.uniform(0.9, 1.1)));
    }
  }
}

/// Rows (y, z) with odd y and z, one per span length len, get solids at
/// x = 2 and x = len + 5: the bulk span between them is x = 4 .. len + 3.
/// No other row holds a solid, so every neighbor of those cells is fluid.
/// 21 z-slices of 26 x 35 cells make a pooled pass run two z-chunks.
Lattice make_tiled_rows(StorageMode mode) {
  const Int3 dim{kMaxSpan + 9, 2 * kMaxSpan + 1, 21};
  EXPECT_GE(dim.z, 2 * ThreadPool::min_chunk_indices(i64(dim.x) * dim.y));
  Lattice lat(dim, mode);
  for (int z = 1; z < dim.z - 1; z += 2) {
    for (int len = 1; len <= kMaxSpan; ++len) {
      const int y = 2 * len - 1;
      lat.set_flag(Int3{2, y, z}, CellType::Solid);
      lat.set_flag(Int3{len + 5, y, z}, CellType::Solid);
    }
  }
  randomize_near_equilibrium(lat);
  return lat;
}

/// Rows of the walled lattice that hold runs: on the y = 0 face (Wall),
/// off the faces, and on the y = d.y - 1 face (FreeSlip).
constexpr int kWalledRows[] = {0, 12, 23};

/// A lattice with no periodic face (x and z-min Wall, y-max and z-max
/// FreeSlip, y-min Wall), so every face cell is slow. In each row y of
/// kWalledRows, slice z = len (len = 1 .. kMaxSpan) holds, along x:
///   0                    an x-end cell
///   1 .. len             fluid cells (a slow run on a face)
///   len + 1 .. 2 len     solid cells
///   2 len + 1            an outflow cell (a slow run that does not collide)
///   2 len + 2 .. d.x - 2 fluid cells
///   d.x - 1              an x-end cell
/// The cells around these rows are slow runs of other lengths, and the
/// rows between them hold bulk spans. 19 z-slices of 38 x 24 cells make
/// a pooled pass run two z-chunks.
Lattice make_walled_rows(StorageMode mode) {
  const Int3 dim{2 * kMaxSpan + 4, 24, kMaxSpan + 2};
  EXPECT_GE(dim.z, 2 * ThreadPool::min_chunk_indices(i64(dim.x) * dim.y));
  Lattice lat(dim, mode);
  lat.set_face_bc(FACE_XMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_XMAX, FaceBc::Wall);
  lat.set_face_bc(FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_YMAX, FaceBc::FreeSlip);
  lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_ZMAX, FaceBc::FreeSlip);
  for (const int y : kWalledRows) {
    for (int len = 1; len <= kMaxSpan; ++len) {
      lat.fill_solid_box(Int3{len + 1, y, len},
                         Int3{2 * len + 1, y + 1, len + 1});
      lat.set_flag(Int3{2 * len + 1, y, len}, CellType::Outflow);
    }
  }
  randomize_near_equilibrium(lat);
  return lat;
}

/// One run of the AA collide: consecutive cells of a CellClass list in one
/// row with one fluidness, each x-end cell alone.
struct CellRun {
  Int3 first;
  i32 len;
  bool fluid;
};

/// The runs of a cell list, computed from their definition.
std::vector<CellRun> runs_of(const Lattice& lat, const std::vector<i64>& list) {
  std::vector<CellRun> runs;
  i64 prev = -2;
  for (const i64 c : list) {
    const Int3 p = lat.coords(c);
    const bool fluid = lat.flag(c) == CellType::Fluid;
    const bool x_end = p.x == 0 || p.x == lat.dim().x - 1;
    const bool joins = !runs.empty() && c == prev + 1 && !x_end &&
                       runs.back().first.x != 0 &&
                       lat.coords(prev).y == p.y && runs.back().fluid == fluid;
    if (joins) {
      ++runs.back().len;
    } else {
      runs.push_back({p, 1, fluid});
    }
    prev = c;
  }
  return runs;
}

bool on_y_face(const Lattice& lat, const CellRun& r) {
  return r.first.y == 0 || r.first.y == lat.dim().y - 1;
}

/// collide_bgk_cell on every fluid cell, one cell at a time through
/// Lattice::f/set_f: the reference the tiled kernels must equal.
void collide_cell_by_cell(Lattice& lat, const BgkParams& p) {
  Real f[Q];
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    if (lat.flag(c) != CellType::Fluid) continue;
    for (int i = 0; i < Q; ++i) f[i] = lat.f(i, c);
    collide_bgk_cell(f, p.tau, p.force);
    for (int i = 0; i < Q; ++i) lat.set_f(i, c, f[i]);
  }
}

/// First cell/direction whose bits differ, or "" when none does.
std::string first_bit_difference(const Lattice& a, const Lattice& b) {
  for (i64 c = 0; c < a.num_cells(); ++c) {
    for (int i = 0; i < Q; ++i) {
      if (std::bit_cast<u32>(a.f(i, c)) != std::bit_cast<u32>(b.f(i, c))) {
        return "f" + std::to_string(i) + " at cell " + std::to_string(c);
      }
    }
  }
  return "";
}

TEST(CollisionTiles, GeometryHasSpansOfEveryLength) {
  const Lattice lat = make_tiled_rows(StorageMode::AA);
  std::set<i32> lengths;
  for (const CellSpan& sp : lat.cell_class().spans) lengths.insert(sp.len);
  for (int len = 1; len <= kMaxSpan; ++len) {
    EXPECT_TRUE(lengths.count(len)) << "no bulk span of length " << len;
  }
}

TEST(CollisionTiles, EverySpanLengthMatchesTheOneCellOperator) {
  ThreadPool pool(3);
  const BgkParams unforced{Real(0.8), Vec3{}};
  const BgkParams forced{Real(0.7), Vec3{Real(1e-4), Real(-2e-4), Real(3e-5)}};
  for (const StorageMode mode : {StorageMode::Sparse, StorageMode::AA}) {
    const int parities = mode == StorageMode::AA ? 2 : 1;
    for (int odd = 0; odd < parities; ++odd) {
      for (const BgkParams* p : {&unforced, &forced}) {
        for (ThreadPool* run_on : {static_cast<ThreadPool*>(nullptr), &pool}) {
          Lattice lat = make_tiled_rows(mode);
          if (odd) {  // one collide and flip: the AA lattice at phase 2
            collide_bgk(lat, unforced);
            stream(lat);
          }
          Lattice ref = lat;
          collide_bgk(lat, *p, StepContext(run_on));
          collide_cell_by_cell(ref, *p);
          EXPECT_EQ(first_bit_difference(lat, ref), "")
              << storage_mode_name(mode) << (odd ? " odd" : " even")
              << (p->force.x != 0 ? " forced" : " unforced")
              << (run_on ? " pooled" : " serial");
        }
      }
    }
  }
}

TEST(CollisionTiles, WalledGeometryHasRunsOfEveryLength) {
  const Lattice lat = make_walled_rows(StorageMode::AA);
  const CellClass& cc = lat.cell_class();
  std::set<i32> slow_on_face;
  int x_ends = 0, not_colliding = 0;
  for (const CellRun& r : runs_of(lat, cc.slow)) {
    if (r.fluid && on_y_face(lat, r) && r.first.x != 0) {
      slow_on_face.insert(r.len);
    }
    x_ends += r.first.x == 0 || r.first.x == lat.dim().x - 1;
    not_colliding += !r.fluid;
  }
  for (int len = 1; len <= kMaxSpan; ++len) {
    EXPECT_TRUE(slow_on_face.count(len)) << "no slow run of length " << len;
  }
  EXPECT_GT(x_ends, 0);
  EXPECT_GT(not_colliding, 0);
  EXPECT_GT(cc.bulk_cells, 0);
}

TEST(CollisionTiles, AaBoundaryRunsMatchTheOneCellOperator) {
  // Every storage mode on the walled geometry; under AA this is the run
  // loop at both parities, where odd parity takes the mapping's wrapped
  // pointers on the faces.
  ThreadPool pool(3);
  const BgkParams unforced{Real(0.8), Vec3{}};
  const BgkParams forced{Real(0.7), Vec3{Real(1e-4), Real(-2e-4), Real(3e-5)}};
  for (const StorageMode mode : {StorageMode::Sparse, StorageMode::AA}) {
    const int parities = mode == StorageMode::AA ? 2 : 1;
    for (int odd = 0; odd < parities; ++odd) {
      for (const BgkParams* p : {&unforced, &forced}) {
        for (ThreadPool* run_on : {static_cast<ThreadPool*>(nullptr), &pool}) {
          Lattice lat = make_walled_rows(mode);
          if (odd) {
            collide_bgk(lat, unforced);
            stream(lat);
          }
          Lattice ref = lat;
          collide_bgk(lat, *p, StepContext(run_on));
          collide_cell_by_cell(ref, *p);
          EXPECT_EQ(first_bit_difference(lat, ref), "")
              << storage_mode_name(mode) << (odd ? " odd" : " even")
              << (p->force.x != 0 ? " forced" : " unforced")
              << (run_on ? " pooled" : " serial");
        }
      }
    }
  }
}

TEST(CollisionTiles, AaFusedEqualsSparseSplit) {
  // Fused steps are stream-then-collide, so the split run takes one extra
  // collide and the fused run one leading collide.
  ThreadPool pool(3);
  const BgkParams p{Real(0.8), Vec3{}};
  const int steps = 4;
  for (const auto make : {make_tiled_rows, make_walled_rows}) {
    Lattice split = make(StorageMode::Sparse);
    Lattice fused = make(StorageMode::AA);
    for (int s = 0; s < steps; ++s) {
      collide_bgk(split, p);
      stream(split);
    }
    collide_bgk(split, p);
    const StepContext ctx{&pool};
    collide_bgk(fused, p, ctx);
    for (int s = 0; s < steps; ++s) fused_stream_collide(fused, p, ctx);
    EXPECT_EQ(first_bit_difference(split, fused), "");
  }
}

TEST(Collision, FusedWithCurvedLinksEqualsSplit) {
  // The AA stream writes the curved links' Bouzidi values with the other
  // rule links, before the fused step collides: on a curved sphere in a
  // channel, N split steps then a collide equal a collide then N fused
  // steps, bit for bit, serial and pooled.
  const BgkParams p{Real(0.8), Vec3{}};
  const int steps = 4;
  auto make = [] {
    Lattice lat(Int3{20, 16, 16});
    lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
    lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
    lat.set_face_bc(FACE_YMIN, FaceBc::FreeSlip);
    lat.set_face_bc(FACE_YMAX, FaceBc::FreeSlip);
    lat.set_inlet(Real(1), Vec3{Real(0.05), 0, 0});
    lat.fill_solid_sphere(Vec3{9, 8, 8}, Real(3.6), /*curved=*/true);
    randomize_near_equilibrium(lat);
    return lat;
  };
  ThreadPool pool(3);
  for (ThreadPool* run_on : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const StepContext ctx(run_on);
    Lattice split = make();
    Lattice fused = make();
    ASSERT_GT(split.curved_links().size(), 100u);
    for (int s = 0; s < steps; ++s) {
      collide_bgk(split, p, ctx);
      stream(split, ctx);
    }
    collide_bgk(split, p, ctx);
    collide_bgk(fused, p, ctx);
    for (int s = 0; s < steps; ++s) fused_stream_collide(fused, p, ctx);
    EXPECT_EQ(first_bit_difference(split, fused), "")
        << (run_on ? "pooled" : "serial");
  }
}

}  // namespace
}  // namespace gc::lbm
