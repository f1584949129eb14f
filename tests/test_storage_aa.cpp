// The AA-pattern storage backend: phase machine invariants, storage
// conversion round-trips, bit-exactness of every host kernel path against
// the Sparse layout, checkpointing from relocated (odd / collided)
// phases, checkpoint-based recovery on an AA cluster, and the typed error
// on cross-mode distribution copies.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/parallel_lbm.hpp"
#include "core/recovery.hpp"
#include "io/checkpoint.hpp"
#include "lbm/cell_pass.hpp"
#include "lbm/collision.hpp"
#include "lbm/les.hpp"
#include "lbm/macroscopic.hpp"
#include "lbm/solver.hpp"
#include "lbm/stream.hpp"
#include "netsim/fault.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace gc {
namespace {

using lbm::FaceBc;
using lbm::Lattice;
using lbm::StorageMode;

/// Scratch directory removed on destruction.
using test::TempPath;

/// Non-trivial domain: mixed face BCs, spatially varying state, a solid
/// box crossing the middle (slow cells, solids and bulk spans all
/// exercised).
Lattice make_state(Int3 dim, StorageMode mode = StorageMode::AA) {
  Lattice lat(dim, mode);
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
        Real(1) + Real(0.004) * Real((p.x + 2 * p.y + 3 * p.z) % 5),
        Vec3{Real(0.01) * Real(p.y % 3), Real(-0.008) * Real(p.z % 2),
             Real(0.006) * Real(p.x % 4)},
        f);
    for (int i = 0; i < lbm::Q; ++i) lat.set_f(i, c, f[i]);
  }
  lat.fill_solid_box(Int3{dim.x / 3, dim.y / 3, 0},
                     Int3{dim.x / 2, dim.y / 2, dim.z / 2});
  return lat;
}

void expect_fields_equal(const Lattice& want, const Lattice& got,
                         const char* label) {
  ASSERT_EQ(want.dim(), got.dim());
  for (int i = 0; i < lbm::Q; ++i) {
    for (i64 c = 0; c < want.num_cells(); ++c) {
      if (want.flag(c) == lbm::CellType::Solid) continue;
      ASSERT_EQ(want.f(i, c), got.f(i, c))
          << label << ": i=" << i << " cell=" << want.coords(c);
    }
  }
}

// --- phase machine --------------------------------------------------------

TEST(StorageAA, PhaseMachineCyclesThroughFourStates) {
  Lattice lat = make_state(Int3{10, 8, 6}, StorageMode::AA);
  EXPECT_EQ(lat.storage_mode(), StorageMode::AA);
  EXPECT_EQ(lat.aa_phase(), 0);
  EXPECT_FALSE(lat.aa_collided());
  EXPECT_TRUE(lat.plane_layout_natural());
  EXPECT_THROW(lat.swap_buffers(), Error);  // flip requires collided

  const lbm::BgkParams p{Real(0.8), Vec3{}};
  lbm::collide_bgk(lat, p);
  EXPECT_EQ(lat.aa_phase(), 1);
  EXPECT_TRUE(lat.aa_collided());
  EXPECT_THROW(lat.aa_mark_collided(), Error);  // already collided

  lbm::stream(lat);
  EXPECT_EQ(lat.aa_phase(), 2);  // odd parity, post-stream
  EXPECT_FALSE(lat.plane_layout_natural());

  lbm::collide_bgk(lat, p);
  EXPECT_EQ(lat.aa_phase(), 3);
  lbm::stream(lat);
  EXPECT_EQ(lat.aa_phase(), 0);  // back to natural
  EXPECT_TRUE(lat.plane_layout_natural());
}

TEST(StorageAA, ConvertStorageRoundTripsBitExact) {
  const Lattice original = make_state(Int3{9, 7, 6});
  Lattice lat = original;
  lat.convert_storage(StorageMode::Sparse);
  EXPECT_EQ(lat.storage_mode(), StorageMode::Sparse);
  expect_fields_equal(original, lat, "after AA->Sparse");
  lat.convert_storage(StorageMode::AA);
  EXPECT_EQ(lat.storage_mode(), StorageMode::AA);
  EXPECT_EQ(lat.aa_phase(), 0);
  expect_fields_equal(original, lat, "after Sparse->AA");
}

TEST(StorageAA, AdoptCollidedLayoutPreservesTheLogicalField) {
  // An un-collided lattice enters the post-collide layout through the
  // collide pass with the identity operator, which is how a stream with
  // no collide before it starts (finish_stream).
  Lattice lat = make_state(Int3{8, 8, 6});
  const Lattice before = lat;
  lbm::detail::collide_pass(lat, lbm::detail::NoOp{}, lbm::StepContext{},
                            lbm::CellBox{});
  EXPECT_EQ(lat.aa_phase(), 1);
  expect_fields_equal(before, lat, "identity advance");
}

TEST(StorageAA, ConvertFromRelocatedPhaseMaterializesNaturalOrder) {
  Lattice lat = make_state(Int3{8, 6, 6});
  const lbm::BgkParams p{Real(0.8), Vec3{}};
  lbm::collide_bgk(lat, p);
  lbm::stream(lat);  // phase 2: odd parity
  Lattice sparse = lat;
  sparse.convert_storage(StorageMode::Sparse);
  expect_fields_equal(lat, sparse, "AA phase 2 -> Sparse");
  sparse.convert_storage(StorageMode::AA);
  EXPECT_EQ(sparse.aa_phase(), 0);
  expect_fields_equal(lat, sparse, "AA phase 2 -> Sparse -> AA");
}

// --- typed cross-mode copy error ------------------------------------------

TEST(StorageAA, CopyDistributionsBetweenModesThrowsTypedError) {
  const Int3 dim{6, 6, 6};
  Lattice sparse(dim, StorageMode::Sparse);
  Lattice aa(dim, StorageMode::AA);
  EXPECT_THROW(sparse.copy_distributions_from(aa), lbm::StorageMismatchError);
  EXPECT_THROW(aa.copy_distributions_from(sparse), lbm::StorageMismatchError);
  // Same-mode copies stay supported in both backends.
  Lattice aa2 = make_state(dim, StorageMode::AA);
  aa.copy_distributions_from(aa2);
  expect_fields_equal(aa2, aa, "AA same-mode copy");
}

// --- gated features -------------------------------------------------------

TEST(StorageAA, CurvedLinksAreRejectedOnlyBySparse) {
  Lattice sparse(Int3{6, 6, 6}, StorageMode::Sparse);
  EXPECT_THROW(sparse.add_curved_link({sparse.idx(2, 2, 2), 1, Real(0.5)}),
               Error);

  Lattice aa(Int3{6, 6, 6});
  aa.add_curved_link({aa.idx(2, 2, 2), 1, Real(0.5)});
  EXPECT_THROW(aa.convert_storage(StorageMode::Sparse), Error);
  EXPECT_EQ(aa.storage_mode(), StorageMode::AA);
}

// --- kernel-path equivalence sweep ----------------------------------------

TEST(StorageAA, LesCollisionMatchesSparseBitExact) {
  const Int3 dim{8, 6, 6};
  Lattice sparse = make_state(dim, StorageMode::Sparse);
  Lattice aa = make_state(dim);
  const lbm::SmagorinskyParams lp;
  for (int s = 0; s < 3; ++s) {
    lbm::collide_bgk_les(sparse, lp);
    lbm::stream(sparse);
    lbm::collide_bgk_les(aa, lp);
    lbm::stream(aa);
  }
  expect_fields_equal(sparse, aa, "LES collide + stream");
}

struct PathCase {
  const char* name;
  lbm::CollisionKind kind = lbm::CollisionKind::BGK;
  bool fused = false;
  bool pooled = false;
  bool forced = false;
  bool thermal = false;
};

TEST(StorageAA, SolverPathsMatchSparseBitExact) {
  // Every solver path on AA against the same path on the Sparse layout.
  const PathCase cases[] = {
      {"split BGK serial"},
      {"fused BGK serial", lbm::CollisionKind::BGK, true},
      {"split BGK pooled", lbm::CollisionKind::BGK, false, true},
      {"fused BGK pooled", lbm::CollisionKind::BGK, true, true},
      {"forced BGK", lbm::CollisionKind::BGK, false, false, true},
      {"split MRT", lbm::CollisionKind::MRT},
      {"pooled MRT", lbm::CollisionKind::MRT, false, true},
      {"thermal MRT", lbm::CollisionKind::MRT, false, false, false, true},
  };
  const Int3 dim{12, 10, 8};
  ThreadPool pool(3);
  for (const PathCase& pc : cases) {
    SCOPED_TRACE(pc.name);
    lbm::SolverConfig cfg;
    cfg.collision = pc.kind;
    cfg.tau = Real(0.8);
    cfg.fused = pc.fused;
    if (pc.pooled) cfg.pool = &pool;
    if (pc.forced) cfg.body_force = Vec3{Real(1e-5), 0, Real(-2e-5)};
    if (pc.thermal) {
      lbm::ThermalParams tp;
      tp.kappa = Real(0.08);
      tp.buoyancy = Real(4e-4);
      tp.t_ref = Real(0.5);
      cfg.thermal = tp;
    }

    auto build = [&](StorageMode mode) {
      lbm::Solver s(dim, cfg);
      s.lattice() = make_state(dim, mode);
      if (pc.thermal) {
        for (i64 c = 0; c < s.lattice().num_cells(); ++c) {
          const Int3 p = s.lattice().coords(c);
          s.thermal()->set_t(c, Real(0.5) +
                                    Real(0.05) * Real((p.x + p.y + p.z) % 7));
        }
      }
      return s;
    };
    lbm::Solver sparse = build(StorageMode::Sparse);
    lbm::Solver aa = build(StorageMode::AA);
    sparse.run(5);
    aa.run(5);
    expect_fields_equal(sparse.lattice(), aa.lattice(), pc.name);
    // Derived observables agree bit-for-bit too (both layouts are read
    // through the same accessors, in the same cell order).
    EXPECT_EQ(lbm::total_mass(sparse.lattice()),
              lbm::total_mass(aa.lattice()));
    if (pc.thermal) {
      for (i64 c = 0; c < sparse.lattice().num_cells(); ++c) {
        ASSERT_EQ(sparse.thermal()->t(c), aa.thermal()->t(c))
            << "T cell " << c;
      }
    }
  }
}

// --- observability --------------------------------------------------------

TEST(StorageAA, BytesAllocatedGaugeIsEmitted) {
  obs::TraceRecorder rec;
  lbm::SolverConfig cfg;
  cfg.storage = StorageMode::AA;
  cfg.trace = &rec;
  lbm::Solver solver(Int3{10, 8, 6}, cfg);
  solver.lattice().init_equilibrium(Real(1), Vec3{0.02f, 0, 0});
  solver.run(2);
  double gauge = -1;
  for (const obs::GaugeSample& g : rec.gauges()) {
    if (g.name == "lattice.bytes_allocated") gauge = g.value;
  }
  EXPECT_EQ(gauge, static_cast<double>(solver.lattice().storage_bytes()));
}

TEST(StorageAA, StorageBytesRoughlyHalved) {
  // One buffer where the two-buffer Sparse layout holds two, plus its
  // index pair, on a lattice with no solid cell to prune.
  const Int3 dim{20, 20, 20};
  const i64 n = dim.volume();
  Lattice sparse(dim, StorageMode::Sparse);
  Lattice aa(dim);
  EXPECT_EQ(aa.storage_bytes(), lbm::Q * n * static_cast<i64>(sizeof(Real)));
  EXPECT_EQ(aa.storage_bytes() * 2 + 2 * n * static_cast<i64>(sizeof(i64)),
            sparse.storage_bytes());
  // The footprint headline: ~2x the cells in less distribution memory.
  Lattice big(Int3{25, 25, 25});  // 1.95x the cells
  EXPECT_LT(big.storage_bytes(), sparse.storage_bytes());
}

// --- checkpointing from every phase ---------------------------------------

TEST(StorageAA, CheckpointRoundTripsFromRelocatedPhases) {
  TempPath dir("aa_ckpt_phases");
  Lattice lat = make_state(Int3{9, 8, 6}, StorageMode::AA);
  const lbm::BgkParams p{Real(0.8), Vec3{}};

  // Walk the phase cycle; snapshot at every state, including the odd
  // parity ones whose on-disk canonical order differs from storage order.
  int snap = 0;
  auto roundtrip = [&] {
    const std::string path =
        dir.path() + "_" + std::to_string(snap++) + ".gclb";
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    io::save_checkpoint(path, lat);
    // v3 header records the AA mode — the mode-less load auto-detects it.
    const Lattice detected = io::load_checkpoint(path);
    EXPECT_EQ(detected.storage_mode(), StorageMode::AA);
    expect_fields_equal(lat, detected, "restored via detected mode");
    const Lattice as_sparse = io::load_checkpoint(path, StorageMode::Sparse);
    EXPECT_EQ(as_sparse.storage_mode(), StorageMode::Sparse);
    expect_fields_equal(lat, as_sparse, "restored as Sparse");
    const Lattice as_aa = io::load_checkpoint(path, StorageMode::AA);
    EXPECT_EQ(as_aa.storage_mode(), StorageMode::AA);
    EXPECT_EQ(as_aa.aa_phase(), 0);
    expect_fields_equal(lat, as_aa, "restored as AA");
    std::remove(path.c_str());
  };
  roundtrip();            // phase 0
  lbm::collide_bgk(lat, p);
  roundtrip();            // phase 1 (even, collided)
  lbm::stream(lat);
  roundtrip();            // phase 2 (odd, post-stream)
  lbm::collide_bgk(lat, p);
  roundtrip();            // phase 3 (odd, collided)
}

TEST(StorageAA, RestoredAaStateEvolvesIdentically) {
  TempPath dir("aa_ckpt_evolve");
  const std::string path = dir.path() + ".gclb";
  Lattice lat = make_state(Int3{10, 8, 6}, StorageMode::AA);
  const lbm::BgkParams p{Real(0.8), Vec3{}};
  // Snapshot from the odd post-stream phase mid-run: a post-stream state,
  // like every whole-step snapshot, so the restored lattice (natural
  // phase 0, next op collide) continues the same trajectory.
  lbm::collide_bgk(lat, p);
  lbm::stream(lat);
  ASSERT_EQ(lat.aa_phase(), 2);
  io::save_checkpoint(path, lat);
  Lattice restored = io::load_checkpoint(path, StorageMode::AA);
  expect_fields_equal(lat, restored, "restored at phase 2");

  for (int s = 0; s < 3; ++s) {
    lbm::collide_bgk(lat, p);
    lbm::stream(lat);
    lbm::collide_bgk(restored, p);
    lbm::stream(restored);
  }
  expect_fields_equal(lat, restored, "evolved after odd-phase restore");
}

// --- cluster recovery on AA -----------------------------------------------

TEST(StorageAA, RecoveryRollbackMatchesCleanSparseRun) {
  // The clean reference runs on the Sparse layout.
  const Int3 dim{16, 16, 8};
  const Lattice init = make_state(dim);
  const int steps = 12;

  core::ParallelConfig clean;
  clean.grid = netsim::NodeGrid{Int3{2, 2, 1}};
  clean.storage = StorageMode::Sparse;
  core::ParallelLbm ref(init, clean);
  ref.run(steps);
  Lattice want(dim);
  ref.gather(want);

  netsim::FaultSpec faults(2024);
  faults.rates.drop = 0.08;
  faults.rates.corrupt = 0.08;
  faults.crashes.push_back({1, 5});

  core::ParallelConfig cfg = clean;
  cfg.storage = StorageMode::AA;
  cfg.faults = &faults;
  cfg.reliability = netsim::ReliabilityConfig{10.0, 60, 1.3, 6.0};

  TempPath dir("aa_ckpt_recovery");
  core::ParallelLbm sim(init, cfg);
  core::RecoveryConfig rc;
  rc.dir = dir.path();
  // An odd interval: rank snapshots land at AA phase 2 (odd parity), so
  // rollback exercises the storage-mode-aware restore path.
  rc.checkpoint_every = 3;
  core::RecoveryDriver driver(sim, rc);
  const core::RecoveryReport report = driver.run(steps);

  EXPECT_EQ(sim.current_step(), steps);
  EXPECT_GE(report.rollbacks, 1);
  Lattice got(dim);
  sim.gather(got);
  expect_fields_equal(want, got, "AA recovery vs clean Sparse");
}

}  // namespace
}  // namespace gc
