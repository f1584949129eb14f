// GPU LBM mapping: packing layout, bit-exact equivalence with the host
// reference under every boundary type, the border-gather optimization,
// and the texture-memory sizing claims of Section 2.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "gpulbm/gpu_solver.hpp"
#include "lbm/collision.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/stream.hpp"

namespace gc::gpulbm {
namespace {

using lbm::CellType;
using lbm::Face;
using lbm::FaceBc;
using lbm::Lattice;

gpusim::GpuDevice make_device() {
  return gpusim::GpuDevice(gpusim::GpuSpec::geforce_fx5800_ultra(),
                           gpusim::BusSpec::agp8x());
}

TEST(Packing, EveryDirectionHasAStackSlot) {
  std::vector<int> seen(lbm::Q, 0);
  for (int s = 0; s < NUM_STACKS; ++s) {
    for (int ch = 0; ch < 4; ++ch) {
      const int dir = dir_at(s, ch);
      if (dir >= 0) {
        EXPECT_EQ(stack_of(dir), s);
        EXPECT_EQ(channel_of(dir), ch);
        ++seen[static_cast<std::size_t>(dir)];
      }
    }
  }
  for (int i = 0; i < lbm::Q; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1);
  EXPECT_EQ(dir_at(4, 3), -1);  // the single padding channel
}

TEST(Packing, SliceRoundTrip) {
  Lattice lat(Int3{5, 4, 3});
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, Real(i * 100 + c));
    }
  }
  Lattice out(Int3{5, 4, 3});
  for (int s = 0; s < NUM_STACKS; ++s) {
    for (int z = 0; z < 3; ++z) {
      unpack_slice(out, s, z, pack_slice(lat, s, z));
    }
  }
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      ASSERT_FLOAT_EQ(out.f(i, c), lat.f(i, c));
    }
  }
}

TEST(Packing, MaxCubicSubdomainMatchesPaper) {
  // 86 MB usable (Section 2) must cap the cubic sub-domain near 92^3.
  const i64 usable = i64(86) * 1024 * 1024;
  const int n = max_cubic_subdomain(usable);
  EXPECT_GE(n, 88);
  EXPECT_LE(n, 96);
  EXPECT_LE(texture_footprint_bytes(Int3{n, n, n}), usable);
  EXPECT_GT(texture_footprint_bytes(Int3{n + 1, n + 1, n + 1}), usable);
}

TEST(Packing, FootprintScalesLinearly) {
  EXPECT_EQ(texture_footprint_bytes(Int3{10, 10, 10}), 112 * 1000);
}

/// Builds a lattice exercising obstacles and a mix of face BCs.
Lattice make_test_lattice(Int3 dim) {
  Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::FreeSlip);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::Wall);
  // z stays periodic.
  lat.set_inlet(Real(1), Vec3{0.06f, 0, 0});
  lat.init_equilibrium(Real(1), Vec3{0.02f, 0.01f, 0});
  lat.fill_solid_box(Int3{dim.x / 2, dim.y / 3, dim.z / 3},
                     Int3{dim.x / 2 + 2, 2 * dim.y / 3, 2 * dim.z / 3});
  lat.set_flag(Int3{1, 1, 1}, CellType::Inlet);
  return lat;
}

TEST(GpuSolver, BitExactVsHostReference) {
  const Int3 dim{10, 8, 6};
  const Real tau = Real(0.8);

  Lattice host = make_test_lattice(dim);
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, tau);

  for (int s = 0; s < 5; ++s) {
    lbm::collide_bgk(host, lbm::BgkParams{tau, Vec3{}});
    lbm::stream(host);
    gpu.step();
  }

  Lattice from_gpu(dim);
  gpu.copy_state_to_host(from_gpu);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < host.num_cells(); ++c) {
      ASSERT_EQ(from_gpu.f(i, c), host.f(i, c))
          << "i=" << i << " cell=" << c << " step-divergence";
    }
  }
}

// The host pull (lbm::detail::pull_value) and the GPU stream program run
// one pull rule (lbm::detail::pull) over different sources, a lattice and
// bound textures; this sweep holds the two sources equal under every face
// BC. One axis takes every pair of non-periodic face BCs, the other two
// stay periodic, and the inlet blows along that axis.
using FaceBcCase = std::tuple<int, FaceBc, FaceBc>;
class FaceBcSweep : public ::testing::TestWithParam<FaceBcCase> {};

TEST_P(FaceBcSweep, GpuMatchesHostBitForBit) {
  const auto [axis, lo, hi] = GetParam();
  const Int3 dim{7, 6, 5};
  const Real tau = Real(0.8);
  Lattice host(dim);
  host.set_face_bc(static_cast<Face>(2 * axis), lo);
  host.set_face_bc(static_cast<Face>(2 * axis + 1), hi);
  Vec3 inflow{};
  inflow[axis] = Real(0.05);
  host.set_inlet(Real(1), inflow);
  host.init_equilibrium(Real(1), Vec3{0.02f, -0.01f, 0.015f});
  host.fill_solid_box(Int3{2, 2, 1}, Int3{4, 4, 3});
  host.set_flag(Int3{5, 1, 1}, CellType::Inlet);
  host.set_flag(Int3{1, 4, 3}, CellType::Outflow);

  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, tau);
  for (int s = 0; s < 4; ++s) {
    lbm::collide_bgk(host, lbm::BgkParams{tau, Vec3{}});
    lbm::stream(host);
    gpu.step();
  }
  Lattice from_gpu(dim);
  gpu.copy_state_to_host(from_gpu);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < host.num_cells(); ++c) {
      ASSERT_EQ(from_gpu.f(i, c), host.f(i, c)) << "i=" << i << " cell=" << c;
    }
  }
}

std::string face_bc_name(FaceBc bc) {
  switch (bc) {
    case FaceBc::Wall: return "Wall";
    case FaceBc::Inlet: return "Inlet";
    case FaceBc::Outflow: return "Outflow";
    case FaceBc::FreeSlip: return "FreeSlip";
    case FaceBc::Periodic: break;
  }
  return "Periodic";
}

INSTANTIATE_TEST_SUITE_P(
    AxisFaces, FaceBcSweep,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(FaceBc::Wall, FaceBc::Inlet,
                                         FaceBc::Outflow, FaceBc::FreeSlip),
                       ::testing::Values(FaceBc::Wall, FaceBc::Inlet,
                                         FaceBc::Outflow, FaceBc::FreeSlip)),
    [](const ::testing::TestParamInfo<FaceBcCase>& info) {
      return std::string(1, "xyz"[std::get<0>(info.param)]) + "_" +
             face_bc_name(std::get<1>(info.param)) + "_" +
             face_bc_name(std::get<2>(info.param));
    });

TEST(GpuSolver, PeriodicDomainBitExact) {
  const Int3 dim{6, 6, 6};
  Lattice host(dim);
  host.init_equilibrium(Real(1), Vec3{0.03f, -0.02f, 0.05f});
  // Perturb so streaming moves something nontrivial.
  host.set_f(7, host.idx(2, 3, 4), Real(0.2));
  host.set_f(16, host.idx(0, 0, 0), Real(0.15));

  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.9));
  for (int s = 0; s < 4; ++s) {
    lbm::collide_bgk(host, lbm::BgkParams{Real(0.9), Vec3{}});
    lbm::stream(host);
    gpu.step();
  }
  Lattice from_gpu(dim);
  gpu.copy_state_to_host(from_gpu);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < host.num_cells(); ++c) {
      ASSERT_EQ(from_gpu.f(i, c), host.f(i, c));
    }
  }
}

TEST(GpuSolver, RejectsCurvedLinks) {
  Lattice lat(Int3{4, 4, 4});
  lat.add_curved_link({0, 1, Real(0.5)});
  gpusim::GpuDevice dev = make_device();
  EXPECT_THROW(GpuLbmSolver(dev, lat, Real(0.8)), Error);
}

TEST(OutgoingDirections, FiveDirectionsPerFaceWithCorrectSign) {
  for (int face = 0; face < 6; ++face) {
    const auto dirs = outgoing_directions(static_cast<Face>(face));
    const int axis = face / 2;
    const int sign = face % 2 == 0 ? -1 : 1;
    for (int i : dirs) {
      EXPECT_EQ(lbm::C[i][axis], sign);
    }
    // All distinct.
    std::set<int> uniq(dirs.begin(), dirs.end());
    EXPECT_EQ(uniq.size(), 5u);
  }
}

class BorderFace : public ::testing::TestWithParam<int> {};

TEST_P(BorderFace, GatheredEqualsUnbundled) {
  const auto face = static_cast<Face>(GetParam());
  Lattice host = make_test_lattice(Int3{8, 7, 6});
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.8));
  gpu.step();

  const std::vector<Real> gathered = gpu.read_border_gathered(face);
  const std::vector<Real> unbundled = gpu.read_border_unbundled(face);
  ASSERT_EQ(gathered.size(), unbundled.size());
  for (std::size_t k = 0; k < gathered.size(); ++k) {
    ASSERT_EQ(gathered[k], unbundled[k]) << "k=" << k;
  }
}

TEST_P(BorderFace, GatheredBorderMatchesHostPack) {
  // The gathered border must equal the distributions the host lattice
  // holds at the boundary layer.
  const auto face = static_cast<Face>(GetParam());
  const Int3 dim{8, 7, 6};
  Lattice host = make_test_lattice(dim);
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.8));

  const std::vector<Real> border = gpu.read_border_gathered(face);
  const auto dirs = outgoing_directions(face);
  const int axis = face / 2;
  const int bw = axis == 0 ? dim.y : dim.x;
  const int bh = axis == 2 ? dim.y : dim.z;

  std::size_t k = 0;
  for (int row = 0; row < bh; ++row) {
    for (int t = 0; t < bw; ++t) {
      Int3 cell;
      switch (face) {
        case lbm::FACE_XMIN: cell = {0, t, row}; break;
        case lbm::FACE_XMAX: cell = {dim.x - 1, t, row}; break;
        case lbm::FACE_YMIN: cell = {t, 0, row}; break;
        case lbm::FACE_YMAX: cell = {t, dim.y - 1, row}; break;
        case lbm::FACE_ZMIN: cell = {t, row, 0}; break;
        case lbm::FACE_ZMAX: cell = {t, row, dim.z - 1}; break;
      }
      for (int d : dirs) {
        ASSERT_EQ(border[k++], host.f(d, host.idx(cell)))
            << "face=" << face << " cell=" << cell;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaces, BorderFace, ::testing::Range(0, 6));

TEST(GpuSolver, GatheredReadbackIsCheaperOnAgp) {
  // The whole point of Section 4.3's gather pass: two read operations
  // beat one per direction per slice.
  Lattice host = make_test_lattice(Int3{16, 16, 12});
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.8));

  dev.bus().reset_ledger();
  gpu.read_border_gathered(lbm::FACE_XMAX);
  const double gathered_s = dev.bus().total_upload_seconds();

  dev.bus().reset_ledger();
  gpu.read_border_unbundled(lbm::FACE_XMAX);
  const double unbundled_s = dev.bus().total_upload_seconds();

  EXPECT_LT(gathered_s * 5, unbundled_s);
}

TEST(GpuSolver, MomentsMatchHostMoments) {
  Lattice host = make_test_lattice(Int3{6, 6, 4});
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.8));
  const std::vector<float> m = gpu.read_moments();
  ASSERT_EQ(m.size(), static_cast<std::size_t>(host.num_cells()) * 4);
  for (i64 c = 0; c < host.num_cells(); ++c) {
    const lbm::Moments hm = lbm::cell_moments(host, c);
    const auto o = static_cast<std::size_t>(c) * 4;
    if (host.flag(c) == CellType::Solid) continue;
    EXPECT_NEAR(m[o], hm.rho, 1e-5);
    EXPECT_NEAR(m[o + 1], hm.u.x, 1e-5);
    EXPECT_NEAR(m[o + 2], hm.u.y, 1e-5);
    EXPECT_NEAR(m[o + 3], hm.u.z, 1e-5);
  }
}

TEST(GpuSolver, DeviceModelReproducesPaperStepTime) {
  // Priced at the paper's 80^3 sub-domain, the pass-level device model
  // must land near the measured 214 ms/step (the cost-model calibration
  // and the fragment-pipeline model have to agree).
  Lattice lat(Int3{16, 16, 16});
  lat.init_equilibrium(Real(1), Vec3{0.05f, 0, 0});
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, lat, Real(0.8));
  dev.reset_ledger();
  gpu.step();
  const double fetches_per_fragment =
      double(dev.ledger().tex_fetches) / double(dev.ledger().fragments);
  const gpusim::GpuPerfModel perf(dev.spec());
  const i64 frags80 = 80 * 80;
  const double step80_ms =
      perf.pass_seconds(frags80, 20,
                        static_cast<i64>(fetches_per_fragment * frags80),
                        frags80 * 16) *
      10 * 80 * 1e3;
  EXPECT_NEAR(step80_ms, 214.0, 0.25 * 214.0);
}

TEST(GpuSolver, StepTimingIsCharged) {
  Lattice host = make_test_lattice(Int3{8, 8, 8});
  gpusim::GpuDevice dev = make_device();
  GpuLbmSolver gpu(dev, host, Real(0.8));
  dev.reset_ledger();
  gpu.step();
  // 5 collision + 5 streaming passes per slice.
  EXPECT_EQ(dev.ledger().passes, 10 * 8);
  EXPECT_GT(dev.ledger().compute_s, 0.0);
}

}  // namespace
}  // namespace gc::gpulbm
