// Curved-boundary (Bouzidi) interpolation and momentum-exchange forces.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "lbm/boundary.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"

namespace gc::lbm {
namespace {

TEST(CurvedBoundary, HalfQReducesToPlainBounceBack) {
  // With q = 1/2 the Bouzidi formula must coincide with half-way BB.
  Lattice plain(Int3{8, 8, 8}), curved(Int3{8, 8, 8});
  for (auto* lat : {&plain, &curved}) {
    lat->init_equilibrium(Real(1), Vec3{0.05f, 0.02f, 0.01f});
    lat->set_flag(Int3{5, 4, 4}, CellType::Solid);
  }
  curved.add_curved_link({curved.idx(4, 4, 4), 1, Real(0.5)});

  for (int s = 0; s < 4; ++s) {
    collide_bgk(plain, BgkParams{Real(0.8), Vec3{}});
    collide_bgk(curved, BgkParams{Real(0.8), Vec3{}});
    stream(plain);
    stream(curved);
  }
  for (int i = 0; i < Q; ++i) {
    EXPECT_FLOAT_EQ(curved.f(i, curved.idx(4, 4, 4)),
                    plain.f(i, plain.idx(4, 4, 4)))
        << "i=" << i;
  }
}

class BouzidiQ : public ::testing::TestWithParam<Real> {};

TEST_P(BouzidiQ, CorrectionInterpolatesBetweenKnownValues) {
  const Real q = GetParam();
  Lattice lat(Int3{8, 8, 8});
  lat.init_equilibrium(Real(1), Vec3{});
  lat.set_flag(Int3{5, 4, 4}, CellType::Solid);
  // Distinct post-collision values along the link and behind it.
  lat.set_f(1, lat.idx(4, 4, 4), Real(0.6));  // f*_i at the boundary cell
  lat.set_f(1, lat.idx(3, 4, 4), Real(0.2));  // f*_i one cell behind
  lat.set_f(2, lat.idx(4, 4, 4), Real(0.1));  // f*_opp at the boundary cell
  lat.add_curved_link({lat.idx(4, 4, 4), 1, q});

  stream(lat);

  Real expected;
  if (q < Real(0.5)) {
    expected = 2 * q * Real(0.6) + (1 - 2 * q) * Real(0.2);
  } else {
    expected = Real(0.6) / (2 * q) + (1 - 1 / (2 * q)) * Real(0.1);
  }
  EXPECT_NEAR(lat.f(2, lat.idx(4, 4, 4)), expected, 1e-6) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Fractions, BouzidiQ,
                         ::testing::Values(Real(0.1), Real(0.3), Real(0.5),
                                           Real(0.7), Real(0.95), Real(1.0)));

TEST(MomentumExchange, StationaryFluidExertsNoNetForce) {
  Lattice lat(Int3{12, 12, 12});
  lat.init_equilibrium(Real(1), Vec3{});
  lat.fill_solid_sphere(Vec3{6, 6, 6}, Real(2.5));
  collide_bgk(lat, BgkParams{Real(0.8), Vec3{}});
  stream(lat);
  const Vec3 F = momentum_exchange_force(lat);
  EXPECT_NEAR(F.x, 0.0, 1e-4);
  EXPECT_NEAR(F.y, 0.0, 1e-4);
  EXPECT_NEAR(F.z, 0.0, 1e-4);
}

TEST(MomentumExchange, DragPointsDownstream) {
  // Uniform flow past a box must push it along the flow direction.
  Lattice lat(Int3{20, 12, 12});
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
  const Vec3 uin{0.08f, 0, 0};
  lat.set_inlet(Real(1), uin);
  lat.init_equilibrium(Real(1), uin);
  lat.fill_solid_box(Int3{8, 4, 4}, Int3{12, 8, 8});

  Vec3 F{};
  for (int s = 0; s < 40; ++s) {
    collide_bgk(lat, BgkParams{Real(0.7), Vec3{}});
    stream(lat);
    if (s > 20) F += momentum_exchange_force(lat);
  }
  EXPECT_GT(F.x, 0.0f);
  EXPECT_GT(std::abs(F.x), std::abs(F.y) * 5);
  EXPECT_GT(std::abs(F.x), std::abs(F.z) * 5);
}

/// A channel with an inlet, an outflow and a sphere of radius 3.4, which
/// is curved when `curved` is set; stepped `steps` split steps.
Lattice sphere_channel(StorageMode mode, bool curved, int steps) {
  Lattice lat(Int3{20, 14, 14}, mode);
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
  const Vec3 uin{Real(0.06), 0, 0};
  lat.set_inlet(Real(1), uin);
  lat.init_equilibrium(Real(1), uin);
  lat.fill_solid_sphere(Vec3{Real(8.3), Real(6.8), Real(7.1)}, Real(3.4),
                        curved);
  for (int s = 0; s < steps; ++s) {
    collide_bgk(lat, BgkParams{Real(0.7), Vec3{}});
    stream(lat);
  }
  return lat;
}

void expect_same_force(Vec3 want, Vec3 got) {
  EXPECT_EQ(std::bit_cast<u32>(want.x), std::bit_cast<u32>(got.x));
  EXPECT_EQ(std::bit_cast<u32>(want.y), std::bit_cast<u32>(got.y));
  EXPECT_EQ(std::bit_cast<u32>(want.z), std::bit_cast<u32>(got.z));
}

TEST(MomentumExchange, HalfQCurvedLinksMatchPlainBounceBack) {
  // A q = 1/2 Bouzidi link is half-way bounce-back, so the force, which
  // reads the curved links' recorded pre-stream values, equals the plain
  // obstacle's bit for bit, and so do the fields.
  const int steps = 12;
  const Lattice plain = sphere_channel(StorageMode::AA, false, steps);
  Lattice curved = sphere_channel(StorageMode::AA, false, 0);
  for (i64 c = 0; c < curved.num_cells(); ++c) {
    if (curved.flag(c) != CellType::Fluid) continue;
    for (int i = 1; i < Q; ++i) {
      const Int3 np = curved.coords(c) + C[i];
      if (curved.in_bounds(np) && curved.flag(np) == CellType::Solid) {
        curved.add_curved_link({c, i, Real(0.5)});
      }
    }
  }
  ASSERT_GT(curved.curved_links().size(), 50u);
  Lattice pre = curved;
  for (int s = 0; s < steps; ++s) {
    collide_bgk(curved, BgkParams{Real(0.7), Vec3{}});
    pre = curved;
    stream(curved);
  }
  // Each link's record is its cell's f*_dir from before the last stream.
  const std::vector<CurvedLink>& links = curved.curved_links();
  ASSERT_EQ(curved.curved_link_out().size(), links.size());
  for (std::size_t k = 0; k < links.size(); ++k) {
    ASSERT_EQ(curved.curved_link_out()[k], pre.f(links[k].dir, links[k].cell));
  }
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < plain.num_cells(); ++c) {
      ASSERT_EQ(plain.f(i, c), curved.f(i, c)) << "f" << i << " at " << c;
    }
  }
  const Vec3 force = momentum_exchange_force(plain);
  EXPECT_GT(force.x, Real(0));
  expect_same_force(force, momentum_exchange_force(curved));
}

TEST(MomentumExchange, AaAndSparseAgreeOnAPlainObstacle) {
  // The force reads only the post-stream field at a plain obstacle, so
  // both storage modes give it bit for bit.
  const Lattice aa = sphere_channel(StorageMode::AA, false, 12);
  const Lattice sparse = sphere_channel(StorageMode::Sparse, false, 12);
  const Vec3 force = momentum_exchange_force(aa);
  EXPECT_GT(force.x, Real(0));
  expect_same_force(force, momentum_exchange_force(sparse));
}

TEST(CurvedBoundary, MassStaysBoundedWithCurvedSphere) {
  Lattice lat(Int3{16, 16, 16});
  lat.init_equilibrium(Real(1), Vec3{0.04f, 0, 0});
  lat.fill_solid_sphere(Vec3{8, 8, 8}, Real(3.2), /*curved=*/true);
  const double m0 = total_mass(lat);
  for (int s = 0; s < 30; ++s) {
    collide_bgk(lat, BgkParams{Real(0.8), Vec3{}});
    stream(lat);
  }
  // Bouzidi interpolation is not exactly mass-conserving, but must stay
  // within a small drift for a well-resolved body.
  EXPECT_NEAR(total_mass(lat) / m0, 1.0, 0.01);
}

}  // namespace
}  // namespace gc::lbm
