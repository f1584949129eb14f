// The keystone validation: the distributed LBM (decomposition + ghost
// layers + scheduled exchange + two-hop diagonal routing) must reproduce
// the serial reference bit-for-bit, for 1D/2D/3D node grids, with
// obstacles straddling block boundaries and mixed face BCs.
#include <gtest/gtest.h>

#include "core/parallel_lbm.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"

namespace gc::core {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

/// A non-trivial global setup: inflow/outflow in x, walls in y, free-slip
/// top / wall bottom, an obstacle crossing block boundaries, spatially
/// varying initial state.
Lattice make_global(Int3 dim) {
  Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});

  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 p = lat.coords(c);
    Real f[lbm::Q];
    lbm::equilibrium_all(
        Real(1) + Real(0.005) * Real((p.x + 2 * p.y + 3 * p.z) % 5),
        Vec3{Real(0.01) * Real(p.y % 3), Real(-0.01) * Real(p.z % 2),
             Real(0.005) * Real(p.x % 4)},
        f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }
  // An obstacle straddling the middle of the domain (crosses block
  // boundaries for every grid in the test set).
  lat.fill_solid_box(Int3{dim.x / 2 - 2, dim.y / 2 - 2, 0},
                     Int3{dim.x / 2 + 2, dim.y / 2 + 2, dim.z / 2});
  return lat;
}

void run_serial(Lattice& lat, Real tau, int steps) {
  for (int s = 0; s < steps; ++s) {
    lbm::collide_bgk(lat, lbm::BgkParams{tau, Vec3{}});
    lbm::stream(lat);
  }
}

struct GridCase {
  Int3 lattice;
  Int3 grid;
};

class ParallelVsSerial : public ::testing::TestWithParam<GridCase> {};

TEST_P(ParallelVsSerial, BitExactAfterManySteps) {
  const GridCase gc = GetParam();
  const Real tau = Real(0.8);
  const int steps = 6;

  Lattice serial = make_global(gc.lattice);
  Lattice initial = make_global(gc.lattice);

  ParallelConfig cfg;
  cfg.tau = tau;
  cfg.grid = netsim::NodeGrid{gc.grid};
  ParallelLbm par(initial, cfg);
  par.run(steps);

  run_serial(serial, tau, steps);

  Lattice gathered(gc.lattice);
  par.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      if (serial.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), serial.f(i, c))
          << "i=" << i << " cell=" << serial.coords(c) << " grid="
          << gc.grid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ParallelVsSerial,
    ::testing::Values(GridCase{Int3{24, 12, 8}, Int3{2, 1, 1}},
                      GridCase{Int3{24, 12, 8}, Int3{1, 2, 1}},
                      GridCase{Int3{16, 16, 8}, Int3{2, 2, 1}},
                      GridCase{Int3{18, 18, 8}, Int3{3, 3, 1}},
                      GridCase{Int3{16, 16, 12}, Int3{2, 2, 2}},
                      GridCase{Int3{20, 12, 9}, Int3{4, 2, 1}},
                      GridCase{Int3{13, 11, 9}, Int3{3, 2, 2}}));

TEST(Parallel, RejectsPeriodicDecomposedAxis) {
  Lattice lat(Int3{16, 16, 8});  // all faces periodic by default
  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  EXPECT_THROW(ParallelLbm(lat, cfg), Error);
}

TEST(Parallel, PeriodicAllowedOnUndecomposedAxis) {
  Lattice lat = make_global(Int3{16, 8, 8});
  // z periodic, grid splits x only.
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Periodic);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::Periodic);
  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  ParallelLbm par(lat, cfg);
  par.run(3);

  Lattice serial(Int3{16, 8, 8});
  // Rebuild identical initial state.
  Lattice fresh = make_global(Int3{16, 8, 8});
  fresh.set_face_bc(lbm::FACE_ZMIN, FaceBc::Periodic);
  fresh.set_face_bc(lbm::FACE_ZMAX, FaceBc::Periodic);
  run_serial(fresh, Real(0.8), 3);

  Lattice gathered(Int3{16, 8, 8});
  par.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < fresh.num_cells(); ++c) {
      if (fresh.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), fresh.f(i, c));
    }
  }
}

TEST(Parallel, MassConservedAcrossNodes) {
  Int3 dim{16, 16, 8};
  Lattice lat(dim);
  // Closed box so mass is exactly conserved.
  for (int f = 0; f < 6; ++f) {
    lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
  }
  lat.init_equilibrium(Real(1), Vec3{0.03f, 0.02f, 0.01f});
  const double m0 = lbm::total_mass(lat);

  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm par(lat, cfg);
  par.run(10);
  Lattice out(dim);
  par.gather(out);
  // Per-cell float rounding drifts mass by O(eps * cells * steps).
  EXPECT_NEAR(lbm::total_mass(out) / m0, 1.0, 1e-5);
}

TEST(Parallel, TrafficMatchesPaperFormula) {
  // For an N^3 sub-domain the face payload is 5 N^2 values and each
  // diagonal chunk is N values (Section 4.3's "5N^2" vs "N").
  const int N = 8;
  Lattice lat = make_global(Int3{2 * N, 2 * N, N});
  ParallelConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm par(lat, cfg);

  const auto bytes = par.traffic_bytes_per_step();
  ASSERT_EQ(bytes.size(), par.schedule().steps.size());
  // Face payload between x-neighbors: 5 * N * N * sizeof(Real), plus the
  // piggybacked diagonal chunk (N values) on some steps.
  const i64 face = i64(5) * N * N * static_cast<i64>(sizeof(Real));
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    for (i64 b : bytes[k]) {
      EXPECT_GE(b, face);
      EXPECT_LE(b, face + 4 * N * static_cast<i64>(sizeof(Real)));
    }
  }

  // And the functional layer's actual traffic agrees with the analytic
  // count. Per step: 4 pairs exchange faces in both directions
  // (2 * 4 * 5N^2 values) and each of the 4 ordered diagonal routes sends
  // two hop messages of N values (8N total).
  par.run(1);
  const i64 expected_values = i64(2) * 4 * 5 * N * N + 8 * N;
  EXPECT_EQ(par.total_payload_values(), expected_values);
}

}  // namespace
}  // namespace gc::core
