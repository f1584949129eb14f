// Cross-cutting property sweeps: conservation, stability and
// parallel/serial equality over combinations of relaxation time, lattice
// shape and boundary setup — plus MRT in the distributed solver and the
// GPU out-of-memory failure path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/parallel_lbm.hpp"
#include "gpulbm/gpu_solver.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

struct SweepCase {
  Real tau;
  Int3 dim;
  int bc_combo;  // 0 = closed box, 1 = channel, 2 = periodic tube
};

Lattice build_case(const SweepCase& sc, u64 seed) {
  Lattice lat(sc.dim);
  switch (sc.bc_combo) {
    case 0:
      for (int f = 0; f < 6; ++f) {
        lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
      }
      break;
    case 1:
      lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
      lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
      lat.set_face_bc(lbm::FACE_YMIN, FaceBc::FreeSlip);
      lat.set_face_bc(lbm::FACE_YMAX, FaceBc::FreeSlip);
      lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::Wall);
      lat.set_inlet(Real(1), Vec3{0.04f, 0, 0});
      break;
    default:
      // z periodic, walls elsewhere.
      lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
      break;
  }
  Rng rng(seed);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    Real f[lbm::Q];
    lbm::equilibrium_all(Real(1) + Real(0.02) * Real(rng.uniform(-1, 1)),
                         Vec3{Real(0.02 * rng.uniform(-1, 1)),
                              Real(0.02 * rng.uniform(-1, 1)),
                              Real(0.02 * rng.uniform(-1, 1))},
                         f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }
  lat.fill_solid_box(Int3{sc.dim.x / 3, sc.dim.y / 3, sc.dim.z / 3},
                     Int3{sc.dim.x / 2, sc.dim.y / 2, sc.dim.z / 2});
  return lat;
}

class DynamicsSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DynamicsSweep, StateStaysFiniteAndSubsonic) {
  const SweepCase sc = GetParam();
  Lattice lat = build_case(sc, 101);
  for (int s = 0; s < 20; ++s) {
    lbm::collide_bgk(lat, lbm::BgkParams{sc.tau, Vec3{}});
    lbm::stream(lat);
  }
  EXPECT_TRUE(std::isfinite(lbm::total_mass(lat)));
  EXPECT_LT(lbm::max_velocity(lat), Real(0.5));
}

TEST_P(DynamicsSweep, ClosedSystemsConserveMass) {
  const SweepCase sc = GetParam();
  if (sc.bc_combo == 1) GTEST_SKIP() << "open channel exchanges mass";
  Lattice lat = build_case(sc, 202);
  const double m0 = lbm::total_mass(lat);
  for (int s = 0; s < 15; ++s) {
    lbm::collide_bgk(lat, lbm::BgkParams{sc.tau, Vec3{}});
    lbm::stream(lat);
  }
  EXPECT_NEAR(lbm::total_mass(lat) / m0, 1.0, 1e-5);
}

TEST_P(DynamicsSweep, ParallelEqualsSerial) {
  const SweepCase sc = GetParam();
  Lattice serial = build_case(sc, 303);
  Lattice initial = build_case(sc, 303);

  core::ParallelConfig cfg;
  cfg.tau = sc.tau;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  core::ParallelLbm par(initial, cfg);
  par.run(5);
  for (int s = 0; s < 5; ++s) {
    lbm::collide_bgk(serial, lbm::BgkParams{sc.tau, Vec3{}});
    lbm::stream(serial);
  }
  Lattice gathered(sc.dim);
  par.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      if (serial.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), serial.f(i, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DynamicsSweep,
    ::testing::Values(SweepCase{Real(0.6), Int3{12, 12, 8}, 0},
                      SweepCase{Real(0.9), Int3{12, 12, 8}, 1},
                      SweepCase{Real(1.4), Int3{12, 12, 8}, 2},
                      SweepCase{Real(0.7), Int3{15, 10, 9}, 0},
                      SweepCase{Real(1.1), Int3{10, 14, 11}, 1},
                      SweepCase{Real(0.55), Int3{16, 8, 10}, 2}));

TEST(ParallelMrt, MatchesSerialMrtBitExact) {
  const Int3 dim{14, 14, 8};
  auto make = [&dim] {
    Lattice lat(dim);
    lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
    lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
    lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
    lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
    lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
    lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
    lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
    lat.init_equilibrium(Real(1), Vec3{0.03f, 0.01f, 0});
    lat.fill_solid_box(Int3{6, 6, 0}, Int3{8, 8, 4});
    return lat;
  };
  Lattice serial = make();
  Lattice initial = make();

  core::ParallelConfig cfg;
  cfg.tau = Real(0.8);
  cfg.collision = lbm::CollisionKind::MRT;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  core::ParallelLbm par(initial, cfg);
  par.run(4);
  const lbm::MrtParams p = lbm::MrtParams::standard(Real(0.8));
  for (int s = 0; s < 4; ++s) {
    lbm::collide_mrt(serial, p);
    lbm::stream(serial);
  }
  Lattice gathered(dim);
  par.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      if (serial.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), serial.f(i, c));
    }
  }
}

TEST(ParallelThermal, HybridThermalMatchesSerialSolverBitExact) {
  // The distributed HTLBM: temperature ghosts exchange one value per
  // border cell; the whole coupled system must track the serial hybrid
  // solver exactly.
  const Int3 dim{16, 12, 10};
  lbm::ThermalParams tp;
  tp.kappa = Real(0.08);
  tp.buoyancy = Real(4e-4);
  tp.t_ref = Real(0.5);
  tp.dirichlet_z = true;

  auto make_lattice = [&dim] {
    Lattice lat(dim);
    for (int f = 0; f < 6; ++f) {
      lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
    }
    lat.init_equilibrium(Real(1), Vec3{});
    lat.fill_solid_box(Int3{7, 5, 0}, Int3{9, 7, 4});
    return lat;
  };
  auto seed_temperature = [&dim](auto&& set_t) {
    for (int z = 0; z < dim.z; ++z) {
      for (int y = 0; y < dim.y; ++y) {
        for (int x = 0; x < dim.x; ++x) {
          set_t(x, y, z,
                Real(0.5) + Real(0.05) * Real((x + 2 * y + 3 * z) % 7));
        }
      }
    }
  };

  // Serial hybrid solver.
  lbm::SolverConfig scfg;
  scfg.collision = lbm::CollisionKind::MRT;
  scfg.tau = Real(0.8);
  scfg.thermal = tp;
  lbm::Solver serial(dim, scfg);
  serial.lattice() = make_lattice();
  seed_temperature([&serial](int x, int y, int z, Real v) {
    serial.thermal()->set_t(serial.lattice().idx(x, y, z), v);
  });

  // Distributed hybrid solver.
  Lattice initial = make_lattice();
  std::vector<Real> T0(static_cast<std::size_t>(dim.volume()));
  seed_temperature([&T0, &dim, &initial](int x, int y, int z, Real v) {
    T0[static_cast<std::size_t>(initial.idx(x, y, z))] = v;
  });
  core::ParallelConfig pcfg;
  pcfg.tau = Real(0.8);
  pcfg.collision = lbm::CollisionKind::MRT;
  pcfg.thermal = tp;
  pcfg.initial_temperature = &T0;
  pcfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  core::ParallelLbm par(initial, pcfg);

  const int steps = 5;
  serial.run(steps);
  par.run(steps);

  Lattice gathered(dim);
  par.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < gathered.num_cells(); ++c) {
      if (serial.lattice().flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), serial.lattice().f(i, c))
          << "i=" << i << " cell=" << gathered.coords(c);
    }
  }
  std::vector<Real> T;
  par.gather_temperature(T);
  for (i64 c = 0; c < gathered.num_cells(); ++c) {
    ASSERT_EQ(T[static_cast<std::size_t>(c)], serial.thermal()->t(c))
        << "cell " << gathered.coords(c);
  }
}

TEST(ParallelThermal, RequiresMrt) {
  Lattice lat(Int3{8, 8, 4});
  for (int f = 0; f < 6; ++f) {
    lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
  }
  core::ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  cfg.thermal = lbm::ThermalParams{};
  EXPECT_THROW(core::ParallelLbm(lat, cfg), Error);
}

TEST(MrtRegion, MatchesFullCollideOnWholeBox) {
  Lattice a(Int3{6, 6, 6}), b(Int3{6, 6, 6});
  Rng rng(7);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      const Real v = lbm::W[i] * Real(rng.uniform(0.8, 1.2));
      a.set_f(i, c, v);
      b.set_f(i, c, v);
    }
  }
  const lbm::MrtParams p = lbm::MrtParams::standard(Real(0.9));
  lbm::collide_mrt(a, p);
  lbm::collide_mrt(b, p, {}, lbm::CellBox{Int3{0, 0, 0}, Int3{6, 6, 6}});
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      ASSERT_EQ(a.f(i, c), b.f(i, c));
    }
  }
}

TEST(GpuFailure, SolverThrowsWhenTextureMemoryExhausted) {
  // A card with a tiny memory budget cannot hold the texture stacks of
  // even a small lattice — the Section 2 limitation surfaces as a typed
  // out-of-memory error rather than silent corruption.
  gpusim::GpuSpec tiny = gpusim::GpuSpec::geforce_fx5800_ultra();
  tiny.texture_memory_bytes = 64 * 1024;  // 64 KB
  gpusim::GpuDevice dev(tiny, gpusim::BusSpec::agp8x());
  Lattice lat(Int3{16, 16, 16});
  lat.init_equilibrium(Real(1), Vec3{});
  EXPECT_THROW(gpulbm::GpuLbmSolver(dev, lat, Real(0.8)),
               gpusim::GpuOutOfMemory);
}

TEST(Allreduce, SumsAcrossRanks) {
  netsim::MpiLite world(5);
  world.run([](netsim::Comm& comm) {
    const double total = comm.allreduce_sum(double(comm.rank()) + 1.0);
    EXPECT_DOUBLE_EQ(total, 15.0);  // 1+2+3+4+5, same on every rank
  });
}

TEST(Allreduce, SingleRankIsIdentity) {
  netsim::MpiLite world(1);
  world.run([](netsim::Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce_sum(3.25), 3.25);
  });
}

}  // namespace
}  // namespace gc
