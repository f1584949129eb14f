// BGK collision: conservation laws, equilibrium fixed point, Guo forcing,
// and equivalence of the fused stream+collide kernel.
#include <gtest/gtest.h>

#include <cmath>

#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

void randomize_positive(Lattice& lat, u64 seed) {
  Rng rng(seed);
  for (int i = 0; i < Q; ++i) {
    Real* p = lat.plane_ptr(i);
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      p[c] = W[i] * Real(rng.uniform(0.7, 1.3));
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
  Lattice lat(Int3{6, 6, 6});
  randomize_positive(lat, 9);
  const Real before = lat.f(1, lat.idx(0, 0, 0));
  collide_bgk(lat, BgkParams{Real(0.8), Vec3{}}, {},
              CellBox{Int3{2, 2, 2}, Int3{4, 4, 4}});
  EXPECT_FLOAT_EQ(lat.f(1, lat.idx(0, 0, 0)), before);
  // A cell inside the region did change.
  Lattice ref(Int3{6, 6, 6});
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

TEST(Collision, FusedRejectsCurvedLinks) {
  Lattice lat(Int3{4, 4, 4});
  lat.add_curved_link({0, 1, Real(0.5)});
  EXPECT_THROW(fused_stream_collide(lat, BgkParams{}), Error);
}

}  // namespace
}  // namespace gc::lbm
