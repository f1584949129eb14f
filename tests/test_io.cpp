// IO: VTK and PPM writers produce well-formed files; CSV round-trips; the
// analytic per-step distribution traffic of every storage mode.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "io/bench_json.hpp"
#include "io/csv.hpp"
#include "io/ppm_writer.hpp"
#include "io/vtk_writer.hpp"
#include "temp_path.hpp"

namespace gc::io {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

using test::TempPath;

TEST(Vtk, ScalarFileHasHeaderAndData) {
  TempPath f("scalar.vtk");
  const Int3 dim{2, 2, 2};
  std::vector<float> data{1, 2, 3, 4, 5, 6, 7, 8};
  write_vtk_scalar(f.path(), dim, data, "rho");
  const std::string s = slurp(f.path());
  EXPECT_NE(s.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(s.find("DIMENSIONS 2 2 2"), std::string::npos);
  EXPECT_NE(s.find("SCALARS rho float 1"), std::string::npos);
  EXPECT_NE(s.find("POINT_DATA 8"), std::string::npos);
  EXPECT_NE(s.find("\n8\n"), std::string::npos);
}

TEST(Vtk, ScalarSizeMismatchThrows) {
  TempPath f("bad.vtk");
  EXPECT_THROW(write_vtk_scalar(f.path(), Int3{2, 2, 2},
                                std::vector<float>(7), "x"),
               Error);
}

TEST(Vtk, VectorFile) {
  TempPath f("vec.vtk");
  const Int3 dim{2, 1, 1};
  std::vector<Vec3> data{Vec3{1, 2, 3}, Vec3{4, 5, 6}};
  write_vtk_vector(f.path(), dim, data, "velocity");
  const std::string s = slurp(f.path());
  EXPECT_NE(s.find("VECTORS velocity float"), std::string::npos);
  EXPECT_NE(s.find("4 5 6"), std::string::npos);
}

TEST(Vtk, PolylinesFile) {
  TempPath f("lines.vtk");
  std::vector<std::vector<Vec3>> lines{
      {Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{2, 0, 0}},
      {Vec3{5, 5, 5}, Vec3{6, 6, 6}},
  };
  write_vtk_polylines(f.path(), lines);
  const std::string s = slurp(f.path());
  EXPECT_NE(s.find("POINTS 5 float"), std::string::npos);
  EXPECT_NE(s.find("LINES 2 7"), std::string::npos);
  EXPECT_NE(s.find("3 0 1 2"), std::string::npos);
  EXPECT_NE(s.find("2 3 4"), std::string::npos);
}

TEST(Ppm, WritesValidBinaryImage) {
  TempPath f("slice.ppm");
  const Int3 dim{4, 3, 2};
  std::vector<float> data(static_cast<std::size_t>(dim.volume()));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = float(i);
  write_ppm_slice(f.path(), dim, data, 1);
  const std::string s = slurp(f.path());
  EXPECT_EQ(s.rfind("P6\n4 3\n255\n", 0), 0u);
  EXPECT_EQ(s.size(), std::string("P6\n4 3\n255\n").size() + 4u * 3u * 3u);
}

TEST(Ppm, RejectsBadSlice) {
  TempPath f("bad.ppm");
  EXPECT_THROW(
      write_ppm_slice(f.path(), Int3{2, 2, 2}, std::vector<float>(8), 5),
      Error);
}

TEST(Csv, WritesTable) {
  TempPath f("t.csv");
  Table t;
  t.set_header({"nodes", "ms"});
  t.row().cell(4L).cell(266.0, 1);
  write_csv(f.path(), t);
  EXPECT_EQ(slurp(f.path()), "nodes,ms\n4,266.0\n");
}

// The traffic bench_suite reports as lbm.bytes_per_step: per storage
// mode and path, on an all-fluid periodic box and on a walled lattice
// with a solid block (where Sparse drops the solid cells and AA pays its
// slow-cell fixups).
class StepTraffic : public ::testing::TestWithParam<lbm::StorageMode> {};

lbm::Lattice traffic_lattice(bool solid_block, lbm::StorageMode mode) {
  if (!solid_block) {
    lbm::Lattice lat(Int3{8, 8, 8});
    if (mode != lbm::StorageMode::DoubleBuffer) lat.convert_storage(mode);
    return lat;
  }
  lbm::Lattice lat(Int3{12, 10, 8});
  lat.set_face_bc(lbm::FACE_XMIN, lbm::FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, lbm::FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_ZMIN, lbm::FaceBc::Wall);
  lat.fill_solid_box(Int3{3, 2, 0}, Int3{7, 6, 5});
  if (mode != lbm::StorageMode::DoubleBuffer) lat.convert_storage(mode);
  return lat;
}

TEST_P(StepTraffic, MatchesTheStorageModesPlaneTraffic) {
  const lbm::StorageMode mode = GetParam();
  constexpr double kPlanes = lbm::Q * sizeof(Real);
  for (const bool solid_block : {false, true}) {
    SCOPED_TRACE(solid_block ? "12x10x8 with a solid block" : "8^3 periodic");
    const lbm::Lattice lat = traffic_lattice(solid_block, mode);
    const double split = split_step_traffic_bytes(lat);
    const double fused = fused_step_traffic_bytes(lat);
    switch (mode) {
      case lbm::StorageMode::DoubleBuffer:
        EXPECT_DOUBLE_EQ(split, 4 * kPlanes * lat.num_cells());
        EXPECT_DOUBLE_EQ(fused, split / 2);
        break;
      case lbm::StorageMode::Sparse: {
        const i64 active = lat.sparse_active_cells();
        EXPECT_EQ(active < lat.num_cells(), solid_block);
        EXPECT_DOUBLE_EQ(split, 4 * kPlanes * active);
        EXPECT_DOUBLE_EQ(fused, split / 2);
        break;
      }
      case lbm::StorageMode::AA: {
        // The periodic box has no slow cell: the flip streams all of it.
        const auto slow = static_cast<double>(lat.cell_class().slow.size());
        if (solid_block) {
          EXPECT_GT(slow, 0);
        } else {
          EXPECT_EQ(slow, 0);
        }
        EXPECT_DOUBLE_EQ(split, 2 * kPlanes * lat.num_cells() +
                                    2 * kPlanes * slow);
        EXPECT_DOUBLE_EQ(fused, split);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, StepTraffic,
    ::testing::Values(lbm::StorageMode::DoubleBuffer, lbm::StorageMode::AA,
                      lbm::StorageMode::Sparse),
    [](const ::testing::TestParamInfo<lbm::StorageMode>& info) {
      return std::string(lbm::storage_mode_name(info.param));
    });

}  // namespace
}  // namespace gc::io
