// Lattice container: indexing, flags, shapes, curved-link registration,
// storage that only its addressing policies can reach, and solid cells,
// which read 0 in every storage mode.
#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>

#include "lbm/collision.hpp"
#include "lbm/lattice.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"

namespace gc::lbm {
namespace {

/// True when L hands out raw distribution storage: one requirement per
/// plane-pointer accessor that Lattice keeps private for the addressing
/// policies of cell_pass.hpp. The build itself is the test.
template <class L>
concept HandsOutStorage = requires(L& l) { l.plane_ptr(0); } ||
                          requires(L& l) { l.sparse_plane_ptr(0); } ||
                          requires(L& l) { l.sparse_back_plane_ptr(0); } ||
                          requires(L& l) { l.aa_bulk_read_ptr(0); } ||
                          requires(L& l) { l.aa_bulk_write_ptr(0); };
static_assert(!HandsOutStorage<Lattice>);

TEST(Lattice, IndexCoordsRoundTrip) {
  Lattice lat(Int3{5, 7, 3});
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    EXPECT_EQ(lat.idx(lat.coords(c)), c);
  }
}

TEST(Lattice, IndexIsXFastest) {
  Lattice lat(Int3{4, 5, 6});
  EXPECT_EQ(lat.idx(1, 0, 0), 1);
  EXPECT_EQ(lat.idx(0, 1, 0), 4);
  EXPECT_EQ(lat.idx(0, 0, 1), 20);
}

TEST(Lattice, RejectsNonPositiveDims) {
  EXPECT_THROW(Lattice(Int3{0, 4, 4}), Error);
  EXPECT_THROW(Lattice(Int3{4, -1, 4}), Error);
}

TEST(Lattice, InitEquilibriumSetsAllCells) {
  Lattice lat(Int3{4, 4, 4});
  const Vec3 u{0.05f, -0.02f, 0.01f};
  lat.init_equilibrium(Real(1.1), u);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Moments m = cell_moments(lat, c);
    EXPECT_NEAR(m.rho, 1.1, 1e-5);
    EXPECT_NEAR(m.u.x, u.x, 1e-5);
    EXPECT_NEAR(m.u.y, u.y, 1e-5);
    EXPECT_NEAR(m.u.z, u.z, 1e-5);
  }
}

TEST(Lattice, SolidBoxClipsToDomain) {
  Lattice lat(Int3{6, 6, 6});
  lat.fill_solid_box(Int3{4, 4, 4}, Int3{100, 100, 100});
  EXPECT_EQ(lat.count(CellType::Solid), 2 * 2 * 2);
  EXPECT_EQ(lat.flag(Int3{5, 5, 5}), CellType::Solid);
  EXPECT_EQ(lat.flag(Int3{3, 4, 4}), CellType::Fluid);
}

TEST(Lattice, SolidSphereMarksCenter) {
  Lattice lat(Int3{16, 16, 16});
  lat.fill_solid_sphere(Vec3{8, 8, 8}, Real(3));
  EXPECT_EQ(lat.flag(Int3{8, 8, 8}), CellType::Solid);
  EXPECT_EQ(lat.flag(Int3{8, 8, 11}), CellType::Solid);  // on the surface
  EXPECT_EQ(lat.flag(Int3{8, 8, 12}), CellType::Fluid);
  EXPECT_EQ(lat.flag(Int3{0, 0, 0}), CellType::Fluid);
  // Volume roughly 4/3 pi r^3 = 113; the rasterization is within ~30%.
  EXPECT_GT(lat.count(CellType::Solid), 80);
  EXPECT_LT(lat.count(CellType::Solid), 160);
}

TEST(Lattice, CurvedSphereLinksHaveValidFractions) {
  Lattice lat(Int3{16, 16, 16});
  lat.fill_solid_sphere(Vec3{8, 8, 8}, Real(3.5), /*curved=*/true);
  ASSERT_FALSE(lat.curved_links().empty());
  for (const CurvedLink& L : lat.curved_links()) {
    EXPECT_GT(L.q, Real(0));
    EXPECT_LE(L.q, Real(1));
    // Link must start at a fluid cell and point at a solid one.
    EXPECT_EQ(lat.flag(L.cell), CellType::Fluid);
    const Int3 target = lat.coords(L.cell) + C[L.dir];
    ASSERT_TRUE(lat.in_bounds(target));
    EXPECT_EQ(lat.flag(target), CellType::Solid);
  }
}

TEST(Lattice, CurvedLinkValidation) {
  Lattice lat(Int3{4, 4, 4});
  EXPECT_THROW(lat.add_curved_link({0, 1, Real(0)}), Error);    // q == 0
  EXPECT_THROW(lat.add_curved_link({0, 1, Real(1.5)}), Error);  // q > 1
  EXPECT_THROW(lat.add_curved_link({0, 0, Real(0.5)}), Error);  // rest dir
  EXPECT_THROW(lat.add_curved_link({-1, 1, Real(0.5)}), Error);
  lat.add_curved_link({0, 1, Real(0.5)});
  EXPECT_EQ(lat.curved_links().size(), 1u);
}

TEST(Lattice, SwapBuffersExchangesPlanes) {
  // The two-buffer layout; an AA swap is a parity flip (StorageAA).
  Lattice lat(Int3{2, 2, 2}, StorageMode::Sparse);
  lat.set_f(3, 0, Real(42));
  lat.swap_buffers();
  lat.set_f(3, 0, Real(7));
  lat.swap_buffers();
  EXPECT_FLOAT_EQ(lat.f(3, 0), Real(42));
  lat.swap_buffers();
  EXPECT_FLOAT_EQ(lat.f(3, 0), Real(7));
}

/// An inlet, outflow and wall lattice with distinct values in every cell,
/// then two solid blocks flagged over them: one on the wall face, one
/// across the periodic y faces, so the AA flip wraps through it.
Lattice make_solid_blocks(StorageMode mode) {
  Lattice lat(Int3{10, 8, 6}, mode);
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_ZMAX, FaceBc::Wall);
  lat.set_inlet(Real(1), Vec3{Real(0.04), 0, 0});
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    for (int i = 0; i < Q; ++i) {
      lat.set_f(i, c, W[i] * (Real(1) + Real(1e-4) * Real((c * Q + i) % 997)));
    }
  }
  lat.fill_solid_box(Int3{3, 2, 0}, Int3{6, 5, 3});
  lat.fill_solid_box(Int3{7, 0, 2}, Int3{9, 2, 4});
  lat.fill_solid_box(Int3{7, 7, 2}, Int3{9, 8, 4});
  return lat;
}

/// Every solid cell of lat reads 0 through both f overloads and through
/// read_plane.
void expect_solids_read_zero(const Lattice& lat, const std::string& when) {
  for (int i = 0; i < Q; ++i) {
    lat.read_plane(i, [&](std::span<const Real> plane) {
      for (i64 c = 0; c < lat.num_cells(); ++c) {
        if (lat.flag(c) != CellType::Solid) continue;
        ASSERT_EQ(lat.f(i, c), Real(0)) << "f" << i << " at " << c << when;
        ASSERT_EQ(lat.f(i, lat.coords(c)), Real(0)) << "f" << i << when;
        ASSERT_EQ(plane[static_cast<std::size_t>(c)], Real(0))
            << "plane " << i << " at " << c << when;
      }
    });
  }
}

TEST(Lattice, SolidCellsReadZeroInEveryStorageMode) {
  const BgkParams p{Real(0.8), Vec3{}};
  const StorageMode modes[] = {StorageMode::Sparse, StorageMode::AA};
  Lattice sparse(Int3{1, 1, 1});
  for (const StorageMode mode : modes) {
    const std::string name = std::string(" on ") + storage_mode_name(mode);
    Lattice lat = make_solid_blocks(mode);
    ASSERT_GT(lat.count(CellType::Solid), 0);
    expect_solids_read_zero(lat, " once flagged" + name);

    Real v[Q];
    for (int i = 0; i < Q; ++i) v[i] = Real(0.5);
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      if (lat.flag(c) != CellType::Solid) continue;
      lat.set_f(1, c, Real(0.5));
      lat.set_f(2, lat.coords(c), Real(0.5));
      lat.scatter_cell(c, v);
    }
    expect_solids_read_zero(lat, " after writes" + name);

    for (int s = 0; s < 2; ++s) {
      collide_bgk(lat, p);
      stream(lat);
      expect_solids_read_zero(lat, " after a split step" + name);
    }
    for (int s = 0; s < 3; ++s) {
      fused_stream_collide(lat, p);
      expect_solids_read_zero(lat, " after a fused step" + name);
    }

    if (mode == StorageMode::Sparse) {
      sparse = std::move(lat);
      continue;
    }
    for (int i = 0; i < Q; ++i) {
      for (i64 c = 0; c < lat.num_cells(); ++c) {
        ASSERT_EQ(std::bit_cast<u32>(lat.f(i, c)),
                  std::bit_cast<u32>(sparse.f(i, c)))
            << "f" << i << " at " << lat.coords(c) << name;
      }
    }
  }
}

TEST(Lattice, StorageBytesMatchesLayout) {
  // One buffer of 19 planes; the fixup scratch is empty until a stream.
  Lattice lat(Int3{10, 10, 10});
  EXPECT_EQ(lat.storage_bytes(), i64(Q) * 1000 * static_cast<i64>(sizeof(Real)));
}

TEST(Lattice, FaceBcDefaultsPeriodic) {
  Lattice lat(Int3{3, 3, 3});
  for (int f = 0; f < 6; ++f) {
    EXPECT_EQ(lat.face_bc(static_cast<Face>(f)), FaceBc::Periodic);
  }
}

TEST(Macroscopic, FieldsSkipSolids) {
  Lattice lat(Int3{4, 4, 4});
  lat.init_equilibrium(Real(1), Vec3{0.1f, 0, 0});
  lat.fill_solid_box(Int3{0, 0, 0}, Int3{1, 1, 1});
  std::vector<Real> rho;
  compute_density_field(lat, rho);
  EXPECT_FLOAT_EQ(rho[0], Real(0));
  EXPECT_NEAR(rho[1], 1.0, 1e-5);
  std::vector<Vec3> u;
  compute_velocity_field(lat, u);
  EXPECT_FLOAT_EQ(u[0].x, Real(0));
  EXPECT_NEAR(u[1].x, 0.1, 1e-5);
}

TEST(Macroscopic, MaxVelocity) {
  Lattice lat(Int3{4, 4, 4});
  lat.init_equilibrium(Real(1), Vec3{0.1f, 0, 0});
  EXPECT_NEAR(max_velocity(lat), 0.1, 1e-5);
}

}  // namespace
}  // namespace gc::lbm
