// The randomized equivalence harness locking down the executed
// compute–communication overlap (ParallelConfig::overlap /
// GpuClusterConfig::overlap): across seeded random configurations —
// 1D/2D/3D node grids, odd and unevenly divided lattice sizes, mixed
// face BCs, random solids, BGK/MRT, thermal on/off — the overlapped step
// must be bit-identical to the synchronous path and the serial reference,
// wire-compatible (same payload volume), and deterministic for a fixed
// seed even under an adversarial FaultSpec. Every configuration runs on
// the default AA storage and is additionally swept across the sparse
// fluid-index backend and the fluid-balanced decomposition, all of which
// must reproduce the AA uniform reference bit-for-bit.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/gpu_cluster.hpp"
#include "core/parallel_lbm.hpp"
#include "lbm/model.hpp"
#include "lbm/solver.hpp"
#include "netsim/fault.hpp"
#include "util/rng.hpp"

namespace gc::core {
namespace {

using lbm::FaceBc;
using lbm::Lattice;

/// One randomized harness configuration, drawn deterministically from a
/// small integer seed.
struct Sample {
  u64 seed = 0;
  Int3 dim{};
  Int3 grid{};
  lbm::CollisionKind kind = lbm::CollisionKind::BGK;
  bool thermal = false;
  bool dirichlet_z = false;
  int steps = 4;

  std::string describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " dim=" << dim << " grid=" << grid
       << " kind=" << (kind == lbm::CollisionKind::MRT ? "MRT" : "BGK")
       << " thermal=" << thermal << " steps=" << steps;
    return os.str();
  }
};

Sample draw_sample(u64 seed) {
  Rng rng(seed * 7919 + 13);
  // 1D, 2D and 3D decompositions, at most 8 ranks.
  static const Int3 kGrids[] = {
      Int3{2, 1, 1}, Int3{1, 2, 1}, Int3{1, 1, 2}, Int3{4, 1, 1},
      Int3{1, 4, 1}, Int3{3, 1, 1}, Int3{2, 2, 1}, Int3{2, 1, 2},
      Int3{1, 2, 2}, Int3{3, 2, 1}, Int3{2, 2, 2}, Int3{1, 1, 3}};
  Sample s;
  s.seed = seed;
  s.grid = kGrids[rng.uniform_int(0, 11)];
  // 4..6 cells per node per axis plus a 0..2 remainder, so sizes are
  // frequently odd and blocks unevenly divided.
  auto axis = [&rng](int nodes) {
    return nodes * static_cast<int>(rng.uniform_int(4, 6)) +
           static_cast<int>(rng.uniform_int(0, 2));
  };
  s.dim = Int3{axis(s.grid.x), axis(s.grid.y), axis(s.grid.z)};
  s.kind = rng.chance(0.4) ? lbm::CollisionKind::MRT : lbm::CollisionKind::BGK;
  // The hybrid thermal model couples to MRT; its Dirichlet z-walls need
  // an undecomposed z axis.
  s.thermal = s.kind == lbm::CollisionKind::MRT && s.grid.z == 1 &&
              rng.chance(0.5);
  s.dirichlet_z = s.thermal && rng.chance(0.5);
  // Discarded draw: it keeps the stream of draws, and so every seed's
  // configuration, fixed.
  (void)rng.chance(0.3);
  s.steps = 4 + static_cast<int>(rng.uniform_int(0, 2));
  return s;
}

lbm::ThermalParams thermal_params(const Sample& s) {
  lbm::ThermalParams tp;
  tp.kappa = Real(0.08);
  tp.buoyancy = Real(4e-4);
  tp.t_ref = Real(0.5);
  tp.dirichlet_z = s.dirichlet_z;
  return tp;
}

/// Builds the global lattice for a sample: per-axis BC pairs (periodic
/// only on undecomposed axes; all-wall for thermal runs, matching the
/// hybrid model's adiabatic assumption), spatially varying initial
/// state, 0..2 random solid boxes.
Lattice make_global(const Sample& s) {
  Rng rng(s.seed * 1000003 + 17);
  Lattice lat(s.dim);
  if (s.thermal) {
    for (int f = 0; f < 6; ++f) {
      lat.set_face_bc(static_cast<lbm::Face>(f), FaceBc::Wall);
    }
  } else {
    static const FaceBc kPairs[][2] = {
        {FaceBc::Inlet, FaceBc::Outflow},
        {FaceBc::Wall, FaceBc::Wall},
        {FaceBc::Wall, FaceBc::FreeSlip},
        {FaceBc::FreeSlip, FaceBc::Outflow},
        {FaceBc::Periodic, FaceBc::Periodic}};
    const int gdim[3] = {s.grid.x, s.grid.y, s.grid.z};
    for (int a = 0; a < 3; ++a) {
      const int choices = gdim[a] > 1 ? 4 : 5;  // no periodic when decomposed
      const auto& pick = kPairs[rng.uniform_int(0, choices - 1)];
      lat.set_face_bc(static_cast<lbm::Face>(2 * a), pick[0]);
      lat.set_face_bc(static_cast<lbm::Face>(2 * a + 1), pick[1]);
    }
  }
  lat.set_inlet(Real(1), Vec3{Real(0.04), 0, 0});

  const Real ar = Real(0.002) * Real(rng.uniform_int(1, 4));
  const Real au = Real(0.004) * Real(rng.uniform_int(1, 3));
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 p = lat.coords(c);
    Real f[lbm::Q];
    lbm::equilibrium_all(
        Real(1) + ar * Real((p.x + 2 * p.y + 3 * p.z) % 5),
        Vec3{au * Real(p.y % 3), -au * Real(p.z % 2), au * Real(p.x % 4) / 2},
        f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }

  const int boxes = static_cast<int>(rng.uniform_int(0, 2));
  for (int b = 0; b < boxes; ++b) {
    Int3 lo{static_cast<int>(rng.uniform_int(0, s.dim.x - 2)),
            static_cast<int>(rng.uniform_int(0, s.dim.y - 2)),
            static_cast<int>(rng.uniform_int(0, s.dim.z - 2))};
    Int3 hi{static_cast<int>(rng.uniform_int(lo.x + 1, s.dim.x - 1)),
            static_cast<int>(rng.uniform_int(lo.y + 1, s.dim.y - 1)),
            static_cast<int>(rng.uniform_int(lo.z + 1, s.dim.z - 1))};
    lat.fill_solid_box(lo, hi);
  }
  return lat;
}

void seed_temperature(const Sample& s, auto&& set_t) {
  for (int z = 0; z < s.dim.z; ++z) {
    for (int y = 0; y < s.dim.y; ++y) {
      for (int x = 0; x < s.dim.x; ++x) {
        set_t(x, y, z, Real(0.5) + Real(0.05) * Real((x + 2 * y + 3 * z) % 7));
      }
    }
  }
}

void expect_lattices_equal(const Lattice& want, const Lattice& got,
                           const char* label) {
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < want.num_cells(); ++c) {
      if (want.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(want.f(i, c), got.f(i, c))
          << label << ": i=" << i << " cell=" << want.coords(c);
    }
  }
}

struct ParResult {
  Lattice gathered;
  std::vector<Real> temperature;
  i64 payload_values = 0;
  double hidden_ms = 0;
};

ParResult run_parallel(const Sample& s, bool overlap,
                       lbm::StorageMode storage = lbm::StorageMode::AA) {
  ParallelConfig cfg;
  cfg.tau = Real(0.8);
  cfg.grid = netsim::NodeGrid{s.grid};
  cfg.collision = s.kind;
  cfg.overlap = overlap;
  cfg.storage = storage;
  std::vector<Real> T0;
  if (s.thermal) {
    cfg.thermal = thermal_params(s);
    T0.resize(static_cast<std::size_t>(s.dim.volume()));
    Lattice probe(s.dim);  // idx() only; flags irrelevant
    seed_temperature(s, [&T0, &probe](int x, int y, int z, Real v) {
      T0[static_cast<std::size_t>(probe.idx(x, y, z))] = v;
    });
    cfg.initial_temperature = &T0;
  }
  ParallelLbm par(make_global(s), cfg);
  par.run(s.steps);
  ParResult out{Lattice(s.dim), {}, 0, 0};
  par.gather(out.gathered);
  if (s.thermal) par.gather_temperature(out.temperature);
  out.payload_values = par.total_payload_values();
  if (overlap) {
    for (int node = 0; node < s.grid.x * s.grid.y * s.grid.z; ++node) {
      out.hidden_ms += par.overlap_hidden_ms(node);
    }
  }
  return out;
}

class OverlapExec : public ::testing::TestWithParam<int> {};

TEST_P(OverlapExec, OverlapMatchesSyncAndSerialBitExact) {
  const Sample s = draw_sample(static_cast<u64>(GetParam()));
  SCOPED_TRACE(s.describe());

  // Serial reference (lbm::Solver shares the distributed step ordering).
  lbm::SolverConfig scfg;
  scfg.collision = s.kind;
  scfg.tau = Real(0.8);
  if (s.thermal) scfg.thermal = thermal_params(s);
  lbm::Solver serial(s.dim, scfg);
  serial.lattice() = make_global(s);
  if (s.thermal) {
    seed_temperature(s, [&serial](int x, int y, int z, Real v) {
      serial.thermal()->set_t(serial.lattice().idx(x, y, z), v);
    });
  }
  serial.run(s.steps);

  const ParResult sync = run_parallel(s, /*overlap=*/false);
  const ParResult ovl = run_parallel(s, /*overlap=*/true);

  expect_lattices_equal(serial.lattice(), sync.gathered, "sync vs serial");
  expect_lattices_equal(serial.lattice(), ovl.gathered, "overlap vs serial");
  expect_lattices_equal(sync.gathered, ovl.gathered, "overlap vs sync");
  if (s.thermal) {
    for (i64 c = 0; c < serial.lattice().num_cells(); ++c) {
      ASSERT_EQ(ovl.temperature[static_cast<std::size_t>(c)],
                serial.thermal()->t(c))
          << "T at " << serial.lattice().coords(c);
      ASSERT_EQ(ovl.temperature[static_cast<std::size_t>(c)],
                sync.temperature[static_cast<std::size_t>(c)]);
    }
  }
  // Wire compatibility: the overlap engine sends the same payloads over
  // the same channels, so the value volume must match exactly.
  EXPECT_EQ(sync.payload_values, ovl.payload_values);
  EXPECT_GE(ovl.hidden_ms, 0.0);

  // Sparse sweep: the fluid-index backend prunes the solid cells out of
  // storage entirely, yet must still be bit-identical to the AA runs
  // above on every path — solid storage is unobservable (reads come back
  // 0, exactly the dense post-stream value; bounce-back never consults
  // the solid cell) — and wire-compatible, since pack/unpack go through
  // the same accessors, so the storage mode never reaches the wire.
  lbm::Solver sp_serial(s.dim, scfg);
  sp_serial.lattice() = make_global(s);
  sp_serial.lattice().convert_storage(lbm::StorageMode::Sparse);
  if (s.thermal) {
    seed_temperature(s, [&sp_serial](int x, int y, int z, Real v) {
      sp_serial.thermal()->set_t(sp_serial.lattice().idx(x, y, z), v);
    });
  }
  sp_serial.run(s.steps);
  expect_lattices_equal(serial.lattice(), sp_serial.lattice(),
                        "sparse serial vs AA serial");

  const ParResult sync_sp = run_parallel(s, false, lbm::StorageMode::Sparse);
  const ParResult ovl_sp = run_parallel(s, true, lbm::StorageMode::Sparse);
  expect_lattices_equal(serial.lattice(), sync_sp.gathered,
                        "sparse sync vs serial");
  expect_lattices_equal(serial.lattice(), ovl_sp.gathered,
                        "sparse overlap vs serial");
  EXPECT_EQ(sync.payload_values, sync_sp.payload_values);
  EXPECT_EQ(ovl.payload_values, ovl_sp.payload_values);
  if (s.thermal) {
    for (i64 c = 0; c < serial.lattice().num_cells(); ++c) {
      ASSERT_EQ(ovl_sp.temperature[static_cast<std::size_t>(c)],
                serial.thermal()->t(c))
          << "sparse T at " << serial.lattice().coords(c);
    }
  }

  // Fluid-balanced cut placement composes with the sparse backend: moving
  // the cut planes onto the marginal fluid histograms changes who computes
  // a cell, never its value.
  ParallelConfig fb_cfg;
  fb_cfg.tau = Real(0.8);
  fb_cfg.grid = netsim::NodeGrid{s.grid};
  fb_cfg.collision = s.kind;
  fb_cfg.overlap = true;
  fb_cfg.fluid_balanced = true;
  fb_cfg.storage = lbm::StorageMode::Sparse;
  std::vector<Real> fbT0;
  if (s.thermal) {
    fb_cfg.thermal = thermal_params(s);
    fbT0.resize(static_cast<std::size_t>(s.dim.volume()));
    Lattice probe(s.dim);
    seed_temperature(s, [&fbT0, &probe](int x, int y, int z, Real v) {
      fbT0[static_cast<std::size_t>(probe.idx(x, y, z))] = v;
    });
    fb_cfg.initial_temperature = &fbT0;
  }
  ParallelLbm fb(make_global(s), fb_cfg);
  EXPECT_TRUE(fb.decomposition().tiles_domain());
  fb.run(s.steps);
  Lattice fb_out(s.dim);
  fb.gather(fb_out);
  expect_lattices_equal(serial.lattice(), fb_out,
                        "fluid-balanced sparse overlap vs serial");
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, OverlapExec, ::testing::Range(0, 20));

TEST(OverlapExec, SameSeedScheduleIsDeterministicUnderFaults) {
  // Two overlap runs with identical seeds — lattice, decomposition and
  // FaultSpec — must agree bit-for-bit: same gathered field, same fault
  // schedule (injection counters), same traffic, same per-rank
  // reliability detections. Corruption-only faults keep the retransmit
  // count timing-independent (every CRC mismatch NACKs exactly once).
  const Sample s = draw_sample(3);
  auto run_once = [&](Lattice& out, netsim::FaultCounters& fc,
                      netsim::ReliabilityStats& rs,
                      std::vector<netsim::RankTraffic>& traffic,
                      lbm::StorageMode storage = lbm::StorageMode::AA) {
    netsim::FaultSpec faults(909);
    faults.rates.corrupt = 0.15;
    ParallelConfig cfg;
    cfg.tau = Real(0.8);
    cfg.grid = netsim::NodeGrid{s.grid};
    cfg.collision = s.kind;
    cfg.overlap = true;
    cfg.faults = &faults;
    cfg.reliability = netsim::ReliabilityConfig{250.0, 10, 1.5, 8.0};
    cfg.storage = storage;
    ParallelLbm par(make_global(s), cfg);
    par.run(s.steps);
    par.gather(out);
    fc = faults.counters();
    rs = par.world().reliability_totals();
    traffic.clear();
    for (int r = 0; r < par.world().size(); ++r) {
      traffic.push_back(par.world().rank_traffic(r));
    }
  };

  Lattice a(s.dim), b(s.dim), c(s.dim);
  netsim::FaultCounters fa, fb, fc2;
  netsim::ReliabilityStats ra, rb, rc;
  std::vector<netsim::RankTraffic> ta, tb, tc;
  run_once(a, fa, ra, ta);
  run_once(b, fb, rb, tb);
  // The AA and sparse backends send byte-identical payloads, so the fault
  // schedule, CRC detections and retransmits replay exactly.
  run_once(c, fc2, rc, tc, lbm::StorageMode::Sparse);

  expect_lattices_equal(a, b, "run 1 vs run 2");
  expect_lattices_equal(a, c, "sparse vs AA under faults");
  EXPECT_GT(fa.corruptions, 0);
  EXPECT_EQ(fa.corruptions, fb.corruptions);
  EXPECT_EQ(fa.corruptions, fc2.corruptions);
  EXPECT_EQ(fa.drops, fb.drops);
  EXPECT_GT(ra.retransmits, 0);
  EXPECT_EQ(ra.retransmits, rb.retransmits);
  EXPECT_EQ(ra.retransmits, rc.retransmits);
  EXPECT_EQ(ra.corrupt_detected, rb.corrupt_detected);
  EXPECT_EQ(ra.corrupt_detected, rc.corrupt_detected);
  EXPECT_EQ(ra.duplicates_dropped, rb.duplicates_dropped);
  ASSERT_EQ(ta.size(), tb.size());
  ASSERT_EQ(ta.size(), tc.size());
  for (std::size_t r = 0; r < ta.size(); ++r) {
    EXPECT_EQ(ta[r].messages, tb[r].messages) << "rank " << r;
    EXPECT_EQ(ta[r].payload_values, tb[r].payload_values) << "rank " << r;
    EXPECT_EQ(ta[r].messages, tc[r].messages) << "sparse rank " << r;
    EXPECT_EQ(ta[r].payload_values, tc[r].payload_values)
        << "sparse rank " << r;
  }
}

TEST(OverlapExec, GpuClusterOverlapMatchesSync) {
  // The GPU-path overlap (partitioned inner/outer render passes) on the
  // 2D grids the simulated-GPU driver supports.
  struct GridCase {
    Int3 lattice;
    Int3 grid;
  };
  const GridCase cases[] = {{Int3{16, 10, 6}, Int3{2, 1, 1}},
                            {Int3{10, 15, 6}, Int3{1, 2, 1}},
                            {Int3{14, 14, 6}, Int3{2, 2, 1}},
                            {Int3{15, 13, 5}, Int3{3, 2, 1}}};
  for (const GridCase& gcase : cases) {
    Sample s = draw_sample(7);
    s.dim = gcase.lattice;
    s.grid = gcase.grid;
    s.kind = lbm::CollisionKind::BGK;
    s.thermal = false;
    SCOPED_TRACE(s.describe());

    // The simulated-GPU driver's supported BC set (no periodic faces).
    auto make_gpu_global = [&s] {
      Lattice lat = make_global(s);
      lat.set_face_bc(lbm::FACE_XMIN, FaceBc::Inlet);
      lat.set_face_bc(lbm::FACE_XMAX, FaceBc::Outflow);
      lat.set_face_bc(lbm::FACE_YMIN, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_YMAX, FaceBc::FreeSlip);
      lat.set_face_bc(lbm::FACE_ZMIN, FaceBc::Wall);
      lat.set_face_bc(lbm::FACE_ZMAX, FaceBc::FreeSlip);
      return lat;
    };

    auto run_gpu = [&](bool overlap, Lattice& out) {
      GpuClusterConfig cfg;
      cfg.tau = Real(0.8);
      cfg.grid = netsim::NodeGrid{s.grid};
      cfg.overlap = overlap;
      GpuClusterLbm cluster(make_gpu_global(), cfg);
      cluster.run(s.steps);
      cluster.gather(out);
      double hidden = 0;
      for (int n = 0; n < s.grid.x * s.grid.y * s.grid.z; ++n) {
        hidden += cluster.overlap_hidden_ms(n);
      }
      return hidden;
    };
    Lattice sync(s.dim), ovl(s.dim);
    run_gpu(false, sync);
    const double hidden = run_gpu(true, ovl);
    expect_lattices_equal(sync, ovl, "gpu overlap vs sync");
    EXPECT_GE(hidden, 0.0);

    // The interop boundary with Sparse host storage: the cluster keeps
    // its own texture-side layout, but seeding from a Sparse global and
    // gathering into a Sparse lattice go through the layout-transparent
    // accessors, so the result is bit-exact vs the AA run.
    Lattice sp_global = make_gpu_global();
    sp_global.convert_storage(lbm::StorageMode::Sparse);
    GpuClusterConfig cfg;
    cfg.tau = Real(0.8);
    cfg.grid = netsim::NodeGrid{s.grid};
    cfg.overlap = true;
    GpuClusterLbm cluster(sp_global, cfg);
    cluster.run(s.steps);
    Lattice sp_out(s.dim, lbm::StorageMode::Sparse);
    cluster.gather(sp_out);
    expect_lattices_equal(sync, sp_out,
                          "gpu seeded from / gathered into Sparse");
  }
}

}  // namespace
}  // namespace gc::core
