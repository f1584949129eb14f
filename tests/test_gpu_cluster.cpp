// Full-stack integration: distributed LBM where every node runs on its
// own simulated GPU, with on-GPU border gathers, simulated-AGP read-backs,
// scheduled MpiLite exchange and ghost write-backs. Must be bit-identical
// to the host distributed solver and the serial reference.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/gpu_cluster.hpp"
#include "core/parallel_lbm.hpp"
#include "lbm/collision.hpp"
#include "lbm/stream.hpp"

namespace gc::core {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

Lattice make_global(Int3 dim) {
  Lattice lat(dim);
  lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_YMAX, FaceBc::FreeSlip);
  lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
  lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{0.05f, 0, 0});
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 p = lat.coords(c);
    Real f[lbm::Q];
    lbm::equilibrium_all(
        Real(1) + Real(0.004) * Real((p.x + p.y + p.z) % 7),
        Vec3{Real(0.01) * Real(p.z % 3), Real(0.008) * Real(p.x % 2), 0}, f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }
  lat.fill_solid_box(Int3{dim.x / 2 - 1, dim.y / 2 - 1, 0},
                     Int3{dim.x / 2 + 1, dim.y / 2 + 1, dim.z - 2});
  return lat;
}

struct GridCase {
  Int3 lattice;
  Int3 grid;
};

class GpuClusterVsSerial : public ::testing::TestWithParam<GridCase> {};

TEST_P(GpuClusterVsSerial, BitExact) {
  const GridCase gcase = GetParam();
  const Real tau = Real(0.8);
  const int steps = 4;

  Lattice serial = make_global(gcase.lattice);
  Lattice initial = make_global(gcase.lattice);

  GpuClusterConfig cfg;
  cfg.tau = tau;
  cfg.grid = netsim::NodeGrid{gcase.grid};
  GpuClusterLbm cluster(initial, cfg);
  cluster.run(steps);

  for (int s = 0; s < steps; ++s) {
    lbm::collide_bgk(serial, lbm::BgkParams{tau, Vec3{}});
    lbm::stream(serial);
  }

  Lattice gathered(gcase.lattice);
  cluster.gather(gathered);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < serial.num_cells(); ++c) {
      if (serial.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(gathered.f(i, c), serial.f(i, c))
          << "i=" << i << " cell=" << serial.coords(c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GpuClusterVsSerial,
    ::testing::Values(GridCase{Int3{16, 10, 6}, Int3{2, 1, 1}},
                      GridCase{Int3{10, 16, 6}, Int3{1, 2, 1}},
                      GridCase{Int3{14, 14, 6}, Int3{2, 2, 1}},
                      GridCase{Int3{15, 13, 5}, Int3{3, 2, 1}}));

TEST(GpuCluster, MatchesHostDistributedSolver) {
  // The wire format is byte-compatible with core::ParallelLbm; both
  // drivers must march in lockstep.
  const Int3 dim{14, 14, 6};
  Lattice initial = make_global(dim);

  GpuClusterConfig gcfg;
  gcfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  GpuClusterLbm gpu_cluster(initial, gcfg);
  gpu_cluster.run(3);

  ParallelConfig pcfg;
  pcfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  ParallelLbm host_cluster(initial, pcfg);
  host_cluster.run(3);

  Lattice a(dim), b(dim);
  gpu_cluster.gather(a);
  host_cluster.gather(b);
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < a.num_cells(); ++c) {
      ASSERT_EQ(a.f(i, c), b.f(i, c)) << "i=" << i << " cell=" << c;
    }
  }
}

TEST(GpuCluster, LedgerAccumulatesAcrossNodes) {
  Lattice initial = make_global(Int3{12, 12, 4});
  GpuClusterConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  GpuClusterLbm cluster(initial, cfg);
  cluster.run(2);
  const gpusim::GpuTimeLedger ledger = cluster.total_ledger();
  EXPECT_GT(ledger.passes, 0);
  EXPECT_GT(ledger.compute_s, 0.0);
  EXPECT_GT(ledger.readback_s, 0.0);  // border read-backs happened
  EXPECT_GT(ledger.download_s, 0.0);  // ghost write-backs happened
}

TEST(GpuCluster, Rejects3dGrids) {
  Lattice initial = make_global(Int3{8, 8, 8});
  GpuClusterConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 2}};
  EXPECT_THROW(GpuClusterLbm(initial, cfg), Error);
}

TEST(GpuCluster, RejectsInletProfile) {
  // The GPU path imposes one uniform inlet velocity; a profiled global
  // must be refused, not run with the profile silently dropped.
  Lattice initial = make_global(Int3{16, 10, 6});
  initial.set_inlet_profile(
      [](Int3 cell) { return Vec3{Real(0.01) * Real(cell.z + 1), 0, 0}; });
  GpuClusterConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  EXPECT_THROW(GpuClusterLbm(initial, cfg), Error);
}

/// Span count per (rank, name) of every span in `rec`.
std::map<std::pair<int, std::string>, int> span_counts(
    const obs::TraceRecorder& rec) {
  std::map<std::pair<int, std::string>, int> out;
  for (const obs::TraceEvent& e : rec.events()) ++out[{e.rank, e.name}];
  return out;
}

TEST(GpuCluster, WireMatchesHostDriver) {
  // Both drivers run one exchange routine over the same per-rank plan, so
  // every rank sends the same messages and payload volume, and traces the
  // same spans, whichever node backs it.
  struct GridCase {
    Int3 lattice;
    Int3 grid;
  };
  for (const GridCase gcase : {GridCase{Int3{14, 14, 6}, Int3{2, 2, 1}},
                               GridCase{Int3{15, 13, 5}, Int3{3, 2, 1}}}) {
    for (const bool overlap : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "grid " << gcase.grid << " overlap " << overlap);
      const Lattice initial = make_global(gcase.lattice);

      obs::TraceRecorder gpu_rec;
      GpuClusterConfig gcfg;
      gcfg.grid = netsim::NodeGrid{gcase.grid};
      gcfg.overlap = overlap;
      gcfg.trace = &gpu_rec;
      GpuClusterLbm gpu_cluster(initial, gcfg);
      gpu_cluster.run(3);

      obs::TraceRecorder host_rec;
      ParallelConfig pcfg;
      pcfg.grid = netsim::NodeGrid{gcase.grid};
      pcfg.overlap = overlap;
      pcfg.trace = &host_rec;
      ParallelLbm host_cluster(initial, pcfg);
      host_cluster.run(3);

      const int ranks = gcfg.grid.num_nodes();
      ASSERT_EQ(gpu_cluster.world().size(), ranks);
      ASSERT_EQ(host_cluster.world().size(), ranks);
      for (int r = 0; r < ranks; ++r) {
        const netsim::RankTraffic g = gpu_cluster.world().rank_traffic(r);
        const netsim::RankTraffic h = host_cluster.world().rank_traffic(r);
        EXPECT_GT(h.messages, 0) << "rank " << r;
        EXPECT_EQ(g.messages, h.messages) << "rank " << r;
        EXPECT_EQ(g.payload_values, h.payload_values) << "rank " << r;
      }
      const auto gpu_spans = span_counts(gpu_rec);
      EXPECT_FALSE(gpu_spans.empty());
      EXPECT_EQ(gpu_spans, span_counts(host_rec));
    }
  }
}

TEST(GpuCluster, RejectsPeriodicDecomposedAxis) {
  Lattice initial(Int3{12, 8, 4});  // periodic everywhere by default
  GpuClusterConfig cfg;
  cfg.grid = netsim::NodeGrid{Int3{2, 1, 1}};
  EXPECT_THROW(GpuClusterLbm(initial, cfg), Error);
}

}  // namespace
}  // namespace gc::core
