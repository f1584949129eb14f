// Multithreaded kernels must be bit-identical to the serial ones (z-slab
// partitioning introduces no reordering of per-cell arithmetic).
#include <gtest/gtest.h>

#include "lbm/collision.hpp"
#include "lbm/mrt.hpp"
#include "lbm/solver.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"

namespace gc::lbm {
namespace {

Lattice make_state(Int3 dim, u64 seed) {
  Lattice lat(dim);
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  Rng rng(seed);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, W[i] * Real(rng.uniform(0.8, 1.2)));
    }
  }
  lat.fill_solid_box(Int3{4, 4, 2}, Int3{7, 7, 5});
  return lat;
}

class PooledThreads : public ::testing::TestWithParam<int> {};

TEST_P(PooledThreads, CollideBgkBitIdentical) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  Lattice serial = make_state(Int3{12, 11, 10}, 1);
  Lattice pooled = make_state(Int3{12, 11, 10}, 1);
  const BgkParams p{Real(0.75), Vec3{Real(1e-5), 0, 0}};
  collide_bgk(serial, p);
  collide_bgk(pooled, p, pool);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      ASSERT_EQ(serial.f(i, c), pooled.f(i, c));
    }
  }
}

TEST_P(PooledThreads, StreamBitIdentical) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  Lattice serial = make_state(Int3{12, 11, 10}, 2);
  Lattice pooled = make_state(Int3{12, 11, 10}, 2);
  stream(serial);
  stream(pooled, pool);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      ASSERT_EQ(serial.f(i, c), pooled.f(i, c));
    }
  }
}

TEST_P(PooledThreads, CollideMrtBitIdentical) {
  ThreadPool pool(static_cast<std::size_t>(GetParam()));
  Lattice serial = make_state(Int3{10, 9, 8}, 3);
  Lattice pooled = make_state(Int3{10, 9, 8}, 3);
  const MrtParams p = MrtParams::standard(Real(0.8));
  collide_mrt(serial, p);
  collide_mrt(pooled, p, pool);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      ASSERT_EQ(serial.f(i, c), pooled.f(i, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PooledThreads,
                         ::testing::Values(1, 2, 4));

TEST(PooledSolver, MultiStepTrajectoriesMatch) {
  ThreadPool pool(3);
  SolverConfig serial_cfg;
  serial_cfg.tau = Real(0.7);
  SolverConfig pooled_cfg = serial_cfg;
  pooled_cfg.pool = &pool;

  Solver a(Int3{14, 12, 10}, serial_cfg);
  Solver b(Int3{14, 12, 10}, pooled_cfg);
  for (auto* solver : {&a, &b}) {
    Lattice& lat = solver->lattice();
    lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
    lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
    lat.set_inlet(Real(1), Vec3{0.06f, 0, 0});
    lat.init_equilibrium(Real(1), Vec3{0.06f, 0, 0});
    lat.fill_solid_sphere(Vec3{7, 6, 5}, Real(2));
  }
  a.run(8);
  b.run(8);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < a.lattice().num_cells(); ++c) {
      ASSERT_EQ(a.lattice().f(i, c), b.lattice().f(i, c));
    }
  }
}

TEST(PooledSolver, ThermalMrtMatchesSerialBitExact) {
  // The hybrid thermal step on a pool (pooled MRT, serial temperature and
  // forcing) against the serial run, on both storage modes.
  ThreadPool pool(3);
  SolverConfig serial_cfg;
  serial_cfg.collision = CollisionKind::MRT;
  serial_cfg.tau = Real(0.8);
  ThermalParams tp;
  tp.kappa = Real(0.08);
  tp.buoyancy = Real(4e-4);
  tp.t_ref = Real(0.5);
  serial_cfg.thermal = tp;
  for (const StorageMode mode : {StorageMode::AA, StorageMode::Sparse}) {
    SCOPED_TRACE(storage_mode_name(mode));
    serial_cfg.storage = mode;
    SolverConfig pooled_cfg = serial_cfg;
    pooled_cfg.pool = &pool;
    Solver a(Int3{12, 11, 10}, serial_cfg);
    Solver b(Int3{12, 11, 10}, pooled_cfg);
    for (Solver* solver : {&a, &b}) {
      Lattice& lat = solver->lattice();
      lat = make_state(Int3{12, 11, 10}, 4);
      lat.convert_storage(mode);
      for (i64 c = 0; c < lat.num_cells(); ++c) {
        const Int3 p = lat.coords(c);
        solver->thermal()->set_t(
            c, Real(0.5) + Real(0.05) * Real((p.x + 2 * p.y + p.z) % 5));
      }
    }
    a.run(6);
    b.run(6);
    for (int i = 0; i < Q; ++i) {
      for (i64 c = 0; c < a.lattice().num_cells(); ++c) {
        ASSERT_EQ(a.lattice().f(i, c), b.lattice().f(i, c));
      }
    }
    for (i64 c = 0; c < a.lattice().num_cells(); ++c) {
      ASSERT_EQ(a.thermal()->t(c), b.thermal()->t(c)) << "T cell " << c;
    }
  }
}

}  // namespace
}  // namespace gc::lbm
