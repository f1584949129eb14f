// Smagorinsky LES closure: equilibrium leaves tau at tau0, shear raises
// it, conservation holds, and the closure stabilizes under-resolved flow.
#include <gtest/gtest.h>

#include <cmath>

#include "lbm/collision.hpp"
#include "lbm/les.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

TEST(Les, EquilibriumKeepsMolecularTau) {
  Real f[Q];
  equilibrium_all(Real(1.02), Vec3{0.05f, -0.02f, 0.03f}, f);
  const SmagorinskyParams p{Real(0.6), Real(0.14)};
  EXPECT_NEAR(smagorinsky_tau(f, p), 0.6, 2e-4);
}

TEST(Les, NonEquilibriumStressRaisesTau) {
  Real f[Q];
  equilibrium_all(Real(1), Vec3{}, f);
  // Inject a pure shear non-equilibrium perturbation (xy component).
  const int d7 = direction_index(Int3{1, 1, 0});
  const int d8 = direction_index(Int3{-1, -1, 0});
  const int d9 = direction_index(Int3{1, -1, 0});
  const int d10 = direction_index(Int3{-1, 1, 0});
  f[d7] += Real(0.01);
  f[d8] += Real(0.01);
  f[d9] -= Real(0.01);
  f[d10] -= Real(0.01);
  const SmagorinskyParams p{Real(0.6), Real(0.14)};
  EXPECT_GT(smagorinsky_tau(f, p), Real(0.61));
}

TEST(Les, LargerCsGivesLargerTau) {
  Real f[Q];
  equilibrium_all(Real(1), Vec3{}, f);
  f[1] += Real(0.02);
  f[2] += Real(0.02);
  const Real t_small = smagorinsky_tau(f, SmagorinskyParams{Real(0.6), Real(0.1)});
  const Real t_large = smagorinsky_tau(f, SmagorinskyParams{Real(0.6), Real(0.2)});
  EXPECT_GT(t_large, t_small);
}

TEST(Les, CollisionConservesMassAndMomentum) {
  Lattice lat(Int3{8, 8, 8});
  Rng rng(5);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, W[i] * Real(rng.uniform(0.7, 1.3)));
    }
  }
  const double m0 = total_mass(lat);
  double mom0[3];
  total_momentum(lat, mom0);
  collide_bgk_les(lat, SmagorinskyParams{});
  double mom1[3];
  total_momentum(lat, mom1);
  EXPECT_NEAR(total_mass(lat), m0, 1e-3);
  for (int a = 0; a < 3; ++a) EXPECT_NEAR(mom1[a], mom0[a], 1e-3);
}

TEST(Les, StabilizesUnderResolvedShearFlow) {
  // A sharp shear layer at tau0 = 0.505 (nu ~ 0.0017): plain BGK goes
  // unstable within a few hundred steps; the LES closure keeps the run
  // finite and subsonic.
  auto run = [](bool les) {
    Lattice lat(Int3{32, 32, 4});
    for (int z = 0; z < 4; ++z) {
      for (int y = 0; y < 32; ++y) {
        for (int x = 0; x < 32; ++x) {
          const Real ux = y < 16 ? Real(0.22) : Real(-0.22);
          // Small sinusoidal trip to start the instability.
          const Real uy = Real(0.02 * std::sin(2.0 * M_PI * x / 32.0));
          Real f[Q];
          equilibrium_all(Real(1), Vec3{ux, uy, 0}, f);
          for (int i = 0; i < Q; ++i) lat.set_f(i, lat.idx(x, y, z), f[i]);
        }
      }
    }
    const SmagorinskyParams p{Real(0.505), Real(0.16)};
    bool blew_up = false;
    for (int s = 0; s < 400 && !blew_up; ++s) {
      if (les) {
        collide_bgk_les(lat, p);
      } else {
        collide_bgk(lat, BgkParams{p.tau0, Vec3{}});
      }
      stream(lat);
      if (s % 50 == 49) {
        const double m = total_mass(lat);
        const Real umax = max_velocity(lat);
        if (!std::isfinite(m) || !std::isfinite(double(umax)) ||
            umax > Real(0.9)) {
          blew_up = true;
        }
      }
    }
    return blew_up;
  };
  EXPECT_FALSE(run(/*les=*/true));
  EXPECT_TRUE(run(/*les=*/false));
}

}  // namespace
}  // namespace gc::lbm
