// MRT collision: moment-basis orthogonality, conservation, BGK
// equivalence when all rates coincide, and equilibrium consistency.
#include <gtest/gtest.h>

#include <cmath>

#include "lbm/collision.hpp"
#include "lbm/mrt.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

TEST(MomentBasis, RowsAreOrthogonal) {
  const MomentBasis& b = MomentBasis::instance();
  for (int r = 0; r < Q; ++r) {
    for (int s = 0; s < Q; ++s) {
      double dot = 0;
      for (int i = 0; i < Q; ++i) dot += b.M[r][i] * b.M[s][i];
      if (r == s) {
        EXPECT_NEAR(dot, b.row_norm2[r], 1e-9);
        EXPECT_GT(dot, 0.0);
      } else {
        EXPECT_NEAR(dot, 0.0, 1e-9) << "rows " << r << "," << s;
      }
    }
  }
}

TEST(MomentBasis, InverseIsExact) {
  const MomentBasis& b = MomentBasis::instance();
  for (int i = 0; i < Q; ++i) {
    for (int j = 0; j < Q; ++j) {
      double prod = 0;
      for (int r = 0; r < Q; ++r) prod += b.Minv[i][r] * b.M[r][j];
      EXPECT_NEAR(prod, i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(MomentBasis, ConservedRowsAreDensityAndMomentum) {
  const MomentBasis& b = MomentBasis::instance();
  for (int i = 0; i < Q; ++i) {
    EXPECT_DOUBLE_EQ(b.M[0][i], 1.0);
    EXPECT_DOUBLE_EQ(b.M[3][i], C[i].x);
    EXPECT_DOUBLE_EQ(b.M[5][i], C[i].y);
    EXPECT_DOUBLE_EQ(b.M[7][i], C[i].z);
  }
}

class MrtTau : public ::testing::TestWithParam<Real> {};

TEST_P(MrtTau, ConservesMassAndMomentum) {
  const MrtParams p = MrtParams::standard(GetParam());
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    Real f[Q];
    double rho0 = 0, m0[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      f[i] = W[i] * Real(rng.uniform(0.6, 1.4));
      rho0 += f[i];
      for (int a = 0; a < 3; ++a) m0[a] += f[i] * C[i][a];
    }
    collide_mrt_cell(f, p);
    double rho1 = 0, m1[3] = {0, 0, 0};
    for (int i = 0; i < Q; ++i) {
      rho1 += f[i];
      for (int a = 0; a < 3; ++a) m1[a] += f[i] * C[i][a];
    }
    EXPECT_NEAR(rho1, rho0, 1e-5);
    for (int a = 0; a < 3; ++a) EXPECT_NEAR(m1[a], m0[a], 1e-5);
  }
}

TEST_P(MrtTau, AllRatesEqualReducesToBgk) {
  const Real tau = GetParam();
  const MrtParams p = MrtParams::bgk_equivalent(tau);
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    Real f[Q], g[Q];
    for (int i = 0; i < Q; ++i) {
      f[i] = g[i] = W[i] * Real(rng.uniform(0.8, 1.2));
    }
    collide_mrt_cell(f, p);
    collide_bgk_cell(g, tau, Vec3{});
    for (int i = 0; i < Q; ++i) {
      EXPECT_NEAR(f[i], g[i], 2e-6) << "i=" << i << " trial=" << trial;
    }
  }
}

TEST_P(MrtTau, EquilibriumIsFixedPoint) {
  const MrtParams p = MrtParams::standard(GetParam());
  Real f[Q], g[Q];
  equilibrium_all(Real(1.02), Vec3{0.03f, 0.05f, -0.02f}, f);
  for (int i = 0; i < Q; ++i) g[i] = f[i];
  collide_mrt_cell(g, p);
  for (int i = 0; i < Q; ++i) EXPECT_NEAR(g[i], f[i], 5e-6);
}

INSTANTIATE_TEST_SUITE_P(Taus, MrtTau,
                         ::testing::Values(Real(0.55), Real(0.8), Real(1.2)));

TEST(Mrt, StandardRatesSetViscosityRows) {
  const MrtParams p = MrtParams::standard(Real(0.8));
  for (int r : {9, 11, 13, 14, 15}) {
    EXPECT_FLOAT_EQ(p.s[static_cast<std::size_t>(r)], Real(1) / Real(0.8));
  }
  EXPECT_FLOAT_EQ(p.s[1], Real(1.19));
  EXPECT_FLOAT_EQ(p.s[16], Real(1.98));
}

TEST(Mrt, LatticeCollideSkipsSolids) {
  Lattice lat(Int3{4, 4, 4});
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  lat.set_flag(Int3{2, 2, 2}, CellType::Solid);
  lat.set_f(1, lat.idx(2, 2, 2), Real(0.123));  // dropped: a solid cell
  EXPECT_EQ(lat.f(1, lat.idx(2, 2, 2)), Real(0));
  collide_mrt(lat, MrtParams::standard(Real(0.9)));
  EXPECT_EQ(lat.f(1, lat.idx(2, 2, 2)), Real(0));
}

}  // namespace
}  // namespace gc::lbm
