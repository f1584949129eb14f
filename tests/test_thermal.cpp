// Hybrid thermal LBM: diffusion, advection, heat conservation, Dirichlet
// plates, Boussinesq coupling.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "lbm/macroscopic.hpp"
#include "lbm/solver.hpp"
#include "lbm/thermal.hpp"

namespace gc::lbm {
namespace {

TEST(Thermal, RejectsUnstableDiffusivity) {
  ThermalParams p;
  p.kappa = Real(0.2);  // explicit 7-point stability requires kappa < 1/6
  EXPECT_THROW(ThermalField(Int3{4, 4, 4}, p), Error);
}

TEST(Thermal, AdiabaticDiffusionConservesHeat) {
  Lattice lat(Int3{10, 10, 10});
  for (int f = 0; f < 6; ++f) lat.set_face_bc(static_cast<Face>(f), FaceBc::Wall);
  ThermalParams p;
  p.kappa = Real(0.1);
  ThermalField T(lat.dim(), p);
  T.set_t(lat.idx(5, 5, 5), Real(100));

  std::vector<Vec3> zero_u(static_cast<std::size_t>(lat.num_cells()));
  const double h0 = T.total_heat(lat);
  for (int s = 0; s < 50; ++s) T.step(lat, zero_u);
  EXPECT_NEAR(T.total_heat(lat), h0, 1e-2);
  // And the pulse actually spread.
  EXPECT_LT(T.t(lat.idx(5, 5, 5)), Real(10));
  EXPECT_GT(T.t(lat.idx(4, 5, 5)), Real(0));
}

TEST(Thermal, DiffusionSpreadsAtExpectedRate) {
  // Point pulse variance grows as 2*kappa*t per axis (discrete heat eq).
  const int n = 21;
  Lattice lat(Int3{n, n, n});
  for (int f = 0; f < 6; ++f) lat.set_face_bc(static_cast<Face>(f), FaceBc::Wall);
  ThermalParams p;
  p.kappa = Real(0.12);
  ThermalField T(lat.dim(), p);
  const int mid = n / 2;
  T.set_t(lat.idx(mid, mid, mid), Real(1));

  std::vector<Vec3> zero_u(static_cast<std::size_t>(lat.num_cells()));
  const int steps = 30;
  for (int s = 0; s < steps; ++s) T.step(lat, zero_u);

  double mass = 0, var_x = 0;
  for (int z = 0; z < n; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        const double t = T.t(lat.idx(x, y, z));
        mass += t;
        var_x += t * (x - mid) * (x - mid);
      }
    }
  }
  var_x /= mass;
  EXPECT_NEAR(var_x, 2.0 * p.kappa * steps, 0.12 * 2.0 * p.kappa * steps);
}

TEST(Thermal, UniformAdvectionMovesPulse) {
  const int n = 20;
  Lattice lat(Int3{n, 4, 4});
  ThermalParams p;
  p.kappa = Real(0.0);
  ThermalField T(lat.dim(), p);
  T.set_t(lat.idx(5, 2, 2), Real(1));

  const Vec3 u{Real(0.5), 0, 0};
  std::vector<Vec3> uf(static_cast<std::size_t>(lat.num_cells()), u);
  for (int s = 0; s < 8; ++s) T.step(lat, uf);

  // Center of mass along x must have moved by ~ u*t = 4 cells (upwind
  // advection is diffusive but preserves the mean position).
  double mass = 0, cx = 0;
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const double t = T.t(c);
    mass += t;
    cx += t * lat.coords(c).x;
  }
  cx /= mass;
  EXPECT_NEAR(cx, 5.0 + 0.5 * 8, 0.3);
}

TEST(Thermal, DirichletPlatesReachLinearProfile) {
  const int nz = 12;
  Lattice lat(Int3{4, 4, nz});
  for (int f = 0; f < 6; ++f) lat.set_face_bc(static_cast<Face>(f), FaceBc::Wall);
  ThermalParams p;
  p.kappa = Real(0.15);
  p.dirichlet_z = true;
  p.t_hot = Real(1);
  p.t_cold = Real(0);
  ThermalField T(lat.dim(), p);
  T.fill(Real(0.5));

  std::vector<Vec3> zero_u(static_cast<std::size_t>(lat.num_cells()));
  for (int s = 0; s < 1500; ++s) T.step(lat, zero_u);

  // Ghost plates at z = -1 (hot) and z = nz (cold): steady profile
  // T(z) = 1 - (z+1)/(nz+1).
  for (int z = 0; z < nz; ++z) {
    const double expected = 1.0 - double(z + 1) / (nz + 1);
    EXPECT_NEAR(T.t(lat.idx(2, 2, z)), expected, 0.01) << "z=" << z;
  }
}

TEST(Thermal, BuoyancyForcePointsUpForHotFluid) {
  Lattice lat(Int3{4, 4, 4});
  ThermalParams p;
  p.kappa = Real(0.1);
  p.buoyancy = Real(1e-3);
  p.t_ref = Real(0.5);
  ThermalField T(lat.dim(), p);
  T.fill(Real(0.5));
  T.set_t(lat.idx(1, 1, 1), Real(1.0));  // hot
  T.set_t(lat.idx(2, 2, 2), Real(0.0));  // cold

  std::vector<Vec3> F;
  T.buoyancy_force(lat, F);
  EXPECT_GT(F[static_cast<std::size_t>(lat.idx(1, 1, 1))].z, 0.0f);
  EXPECT_LT(F[static_cast<std::size_t>(lat.idx(2, 2, 2))].z, 0.0f);
  EXPECT_FLOAT_EQ(F[static_cast<std::size_t>(lat.idx(0, 0, 0))].z, 0.0f);
}

TEST(Thermal, FirstOrderForceShiftConservesMassAddsMomentum) {
  Lattice lat(Int3{5, 5, 5});
  lat.init_equilibrium(Real(1), Vec3{});
  std::vector<Vec3> F(static_cast<std::size_t>(lat.num_cells()),
                      Vec3{0, 0, Real(1e-4)});
  const double m0 = total_mass(lat);
  double mom0[3];
  total_momentum(lat, mom0);
  apply_force_first_order(lat, F);
  double mom1[3];
  total_momentum(lat, mom1);
  EXPECT_NEAR(total_mass(lat), m0, 1e-4);
  EXPECT_NEAR(mom1[2] - mom0[2], 1e-4 * lat.num_cells(), 1e-6);
  EXPECT_NEAR(mom1[0] - mom0[0], 0.0, 1e-6);
}

TEST(Thermal, HybridSolverProducesConvectionPlume) {
  // A hot floor strip under gravity-driven buoyancy must generate upward
  // flow above the strip within a few hundred steps.
  SolverConfig cfg;
  cfg.collision = CollisionKind::MRT;
  cfg.tau = Real(0.8);
  ThermalParams tp;
  tp.kappa = Real(0.05);
  tp.buoyancy = Real(5e-4);
  tp.t_ref = Real(0);
  cfg.thermal = tp;

  Solver solver(Int3{16, 4, 16}, cfg);
  Lattice& lat = solver.lattice();
  lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_ZMAX, FaceBc::Wall);
  lat.set_face_bc(FACE_XMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_XMAX, FaceBc::Wall);
  lat.init_equilibrium(Real(1), Vec3{});
  ASSERT_NE(solver.thermal(), nullptr);
  // Persistent hot spot: re-impose each step by running in bursts.
  for (int burst = 0; burst < 30; ++burst) {
    for (int x = 6; x <= 9; ++x) {
      solver.thermal()->set_t(lat.idx(x, 2, 0), Real(1));
    }
    solver.run(10);
  }
  const Moments above = cell_moments(lat, lat.idx(7, 2, 4));
  EXPECT_GT(above.u.z, 1e-5);
}

TEST(Thermal, AdvectLeavesCellsOutsideTheBoxUnchanged) {
  // A distributed rank advects its owned box only: the ghost temperatures
  // around it wait for the next ghost swap, bit for bit.
  Lattice lat(Int3{8, 7, 6});
  lat.init_equilibrium(Real(1), Vec3{Real(0.02), Real(-0.01), 0});
  lat.fill_solid_box(Int3{3, 3, 2}, Int3{5, 4, 3});
  ThermalParams p;
  p.kappa = Real(0.1);
  ThermalField T(lat.dim(), p);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    T.set_t(c, Real(0.25) * Real(c % 5));
  }
  const std::vector<Real> before = T.field();
  const CellBox box{Int3{1, 1, 0}, Int3{7, 5, 6}};
  T.advect(lat, box);

  int changed_inside = 0;
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 q = lat.coords(c);
    const bool inside = q.x >= box.lo.x && q.x < box.hi.x &&
                        q.y >= box.lo.y && q.y < box.hi.y;
    const Real was = before[static_cast<std::size_t>(c)];
    if (inside) {
      changed_inside += T.t(c) != was;
    } else {
      ASSERT_EQ(T.t(c), was) << "cell " << q << " outside the box changed";
    }
  }
  EXPECT_GT(changed_inside, 0);
}

TEST(Thermal, SolverRequiresMrtForThermal) {
  SolverConfig cfg;
  cfg.collision = CollisionKind::BGK;
  cfg.thermal = ThermalParams{};
  EXPECT_THROW(Solver(Int3{4, 4, 4}, cfg), Error);
}

TEST(Solver, RejectsBodyForceItWouldDrop) {
  // The body force is BGK/Guo only: an MRT step, thermal or not, has no
  // place for it, so the configuration is refused rather than run
  // unforced.
  for (const bool thermal : {false, true}) {
    SCOPED_TRACE(thermal ? "MRT with thermal" : "MRT");
    SolverConfig cfg;
    cfg.collision = CollisionKind::MRT;
    cfg.body_force = Vec3{Real(1e-5), 0, 0};
    if (thermal) cfg.thermal = ThermalParams{};
    try {
      Solver solver(Int3{4, 4, 4}, cfg);
      ADD_FAILURE() << "a body force with MRT was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("BGK/Guo only"),
                std::string::npos)
          << e.what();
    }
  }
  SolverConfig bgk;
  bgk.body_force = Vec3{Real(1e-5), 0, 0};
  EXPECT_NO_THROW(Solver(Int3{4, 4, 4}, bgk));
}

}  // namespace
}  // namespace gc::lbm
