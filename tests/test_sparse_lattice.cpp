// The sparse fluid-index backend (StorageMode::Sparse): compact layout
// invariants against the flag field, dense <-> sparse round trips at
// every buffer phase, accessor semantics on pruned (solid) cells, lazy
// remapping under flag mutations, kernel equivalence of the AA and sparse
// backends against the dense reference, and checkpoint save/load across
// storage layouts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"
#include "lbm/collision.hpp"
#include "lbm/les.hpp"
#include "lbm/model.hpp"
#include "lbm/mrt.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gc::lbm {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A double-buffered lattice with mixed BCs, a solid obstacle and a
/// spatially varying near-equilibrium state — the dense reference every
/// sparse expectation compares against.
Lattice make_dense(Int3 dim = Int3{12, 9, 7}) {
  Lattice lat(dim);
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
  lat.set_face_bc(FACE_YMIN, FaceBc::Wall);
  lat.set_face_bc(FACE_YMAX, FaceBc::FreeSlip);
  lat.set_inlet(Real(1), Vec3{Real(0.04), 0, 0});
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const Int3 p = lat.coords(c);
    Real f[Q];
    equilibrium_all(Real(1) + Real(0.002) * Real((p.x + 2 * p.y + p.z) % 5),
                    Vec3{Real(0.01) * Real(p.y % 3),
                         -Real(0.008) * Real(p.z % 2),
                         Real(0.004) * Real(p.x % 4)},
                    f);
    for (int i = 0; i < Q; ++i) lat.set_f(i, c, f[i]);
  }
  lat.fill_solid_box(Int3{4, 3, 2}, Int3{7, 6, 5});
  return lat;
}

void expect_equal_active(const Lattice& want, const Lattice& got,
                         const char* label) {
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < want.num_cells(); ++c) {
      if (want.flag(c) == CellType::Solid) continue;
      ASSERT_EQ(want.f(i, c), got.f(i, c))
          << label << ": i=" << i << " cell=" << want.coords(c);
    }
  }
}

TEST(SparseLattice, CompactLayoutMatchesFlagField) {
  Lattice lat = make_dense();
  lat.convert_storage(StorageMode::Sparse);

  i64 active = 0;
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    if (lat.flag(c) != CellType::Solid) ++active;
  }
  ASSERT_EQ(lat.sparse_active_cells(), active);
  ASSERT_LT(active, lat.num_cells());  // the obstacle must prune something

  // The cell list is the ascending enumeration of non-solid dense ids,
  // and the map is its exact inverse with -1 at every pruned cell.
  const std::vector<i64>& cells = lat.sparse_cell_list();
  ASSERT_EQ(static_cast<i64>(cells.size()), active);
  for (i64 m = 0; m < active; ++m) {
    if (m > 0) {
      EXPECT_LT(cells[static_cast<std::size_t>(m - 1)],
                cells[static_cast<std::size_t>(m)]);
    }
    EXPECT_NE(lat.flag(cells[static_cast<std::size_t>(m)]), CellType::Solid);
    EXPECT_EQ(lat.sparse_index(cells[static_cast<std::size_t>(m)]), m);
  }
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    if (lat.flag(c) == CellType::Solid) {
      EXPECT_EQ(lat.sparse_index(c), -1);
    }
  }

  // Pruning must show up in the footprint once the solid fraction
  // outweighs the index-map overhead (~10% at 4-byte Reals): a half-solid
  // scene stores far less compactly than double-buffered.
  Lattice heavy(Int3{16, 16, 16});
  heavy.fill_solid_box(Int3{0, 0, 0}, Int3{16, 16, 8});
  const i64 dense_bytes = heavy.storage_bytes();
  heavy.convert_storage(StorageMode::Sparse);
  EXPECT_LT(heavy.storage_bytes(), dense_bytes);
  EXPECT_FALSE(lat.plane_layout_natural());
}

TEST(SparseLattice, RoundTripPreservesActiveValues) {
  const Lattice dense = make_dense();
  Lattice lat = make_dense();
  lat.convert_storage(StorageMode::Sparse);
  expect_equal_active(dense, lat, "dense -> sparse");

  lat.convert_storage(StorageMode::DoubleBuffer);
  EXPECT_EQ(lat.storage_mode(), StorageMode::DoubleBuffer);
  expect_equal_active(dense, lat, "sparse -> dense");
  // Solid values do not survive the compact layout; they come back as 0,
  // which is also what dense post-stream state stores there.
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    if (dense.flag(c) != CellType::Solid) continue;
    for (int i = 0; i < Q; ++i) ASSERT_EQ(lat.f(i, c), Real(0));
  }
}

TEST(SparseLattice, RoundTripFromEveryAaPhase) {
  const BgkParams p{Real(0.8), Vec3{}};

  // Natural parity: a full collide+stream cycle lands AA back at phase 0.
  {
    Lattice ref = make_dense();
    Lattice aa = make_dense();
    aa.convert_storage(StorageMode::AA);
    collide_bgk(ref, p);
    stream(ref);
    collide_bgk(aa, p);
    stream(aa);
    aa.convert_storage(StorageMode::Sparse);
    expect_equal_active(ref, aa, "AA phase 0 -> sparse");
    aa.convert_storage(StorageMode::AA);
    expect_equal_active(ref, aa, "sparse -> AA");
  }

  // Relocated parity: converting mid-step — right after the AA collide
  // moved every value to its shifted slot — must materialize the natural
  // order before compacting.
  {
    Lattice ref = make_dense();
    Lattice aa = make_dense();
    aa.convert_storage(StorageMode::AA);
    collide_bgk(ref, p);
    collide_bgk(aa, p);
    aa.convert_storage(StorageMode::Sparse);
    expect_equal_active(ref, aa, "AA collided phase -> sparse");
    aa.convert_storage(StorageMode::DoubleBuffer);
    expect_equal_active(ref, aa, "sparse -> dense");
  }
}

TEST(SparseLattice, AccessorsTreatPrunedCellsAsZero) {
  Lattice lat = make_dense();
  lat.convert_storage(StorageMode::Sparse);
  const i64 solid = lat.idx(5, 4, 3);
  ASSERT_EQ(lat.flag(solid), CellType::Solid);

  EXPECT_EQ(lat.f(0, solid), Real(0));
  lat.set_f(0, solid, Real(7));  // dropped, not stored
  EXPECT_EQ(lat.f(0, solid), Real(0));

  Real cell[Q];
  for (int i = 0; i < Q; ++i) cell[i] = Real(3);
  lat.gather_cell(solid, cell);
  for (int i = 0; i < Q; ++i) ASSERT_EQ(cell[i], Real(0));
  for (int i = 0; i < Q; ++i) cell[i] = Real(3);
  lat.scatter_cell(solid, cell);
  EXPECT_EQ(lat.f(0, solid), Real(0));

  // Active cells behave exactly like dense storage.
  const i64 fluid = lat.idx(1, 1, 1);
  lat.set_f(2, fluid, Real(0.123));
  EXPECT_EQ(lat.f(2, fluid), Real(0.123));
}

TEST(SparseLattice, FlagMutationRemapsSurvivingValues) {
  Lattice lat = make_dense();
  lat.convert_storage(StorageMode::Sparse);
  const i64 before = lat.sparse_active_cells();

  const i64 probe = lat.idx(10, 7, 6);
  const Real kept = lat.f(3, probe);
  ASSERT_NE(kept, Real(0));

  // Carving a new solid shrinks the compact layout but must carry every
  // surviving cell's values through the remap.
  lat.fill_solid_box(Int3{1, 1, 1}, Int3{3, 3, 3});
  EXPECT_LT(lat.sparse_active_cells(), before);
  EXPECT_EQ(lat.f(3, probe), kept);

  // Un-pruning (solid -> fluid) grows the layout; the resurrected cell
  // starts from zeroed storage like any fresh allocation.
  const i64 grown = lat.idx(5, 4, 3);
  lat.set_flag(grown, CellType::Fluid);
  EXPECT_GT(lat.sparse_index(grown), -1);
  for (int i = 0; i < Q; ++i) ASSERT_EQ(lat.f(i, grown), Real(0));
  EXPECT_EQ(lat.f(3, probe), kept);
}

/// Every kernel on `mode` storage against the dense reference: serial +
/// pooled stream with BGK, MRT and LES collides, a box-clipped collide and
/// the fused kernel, against the dense lattice stepping the same schedule
/// (the randomized cross-backend harness lives in test_overlap_exec.cpp;
/// this is the focused unit).
void expect_kernels_match_dense(StorageMode mode) {
  ThreadPool pool(3);
  const StepContext serial;
  const StepContext threaded(pool);
  const BgkParams bgk{Real(0.8), Vec3{}};
  const MrtParams mrt = MrtParams::standard(Real(0.8));
  const SmagorinskyParams les;

  Lattice dense = make_dense();
  Lattice other = make_dense();
  other.convert_storage(mode);
  auto split_steps = [&](const char* label, int steps,
                         const StepContext& ctx, const auto& collide) {
    for (int s = 0; s < steps; ++s) {
      collide(dense, ctx);
      stream(dense, ctx);
      collide(other, ctx);
      stream(other, ctx);
    }
    expect_equal_active(dense, other, label);
  };
  auto bgk_collide = [&](Lattice& lat, const StepContext& ctx) {
    collide_bgk(lat, bgk, ctx);
  };
  auto mrt_collide = [&](Lattice& lat, const StepContext& ctx) {
    collide_mrt(lat, mrt, ctx);
  };
  auto les_collide = [&](Lattice& lat, const StepContext& ctx) {
    collide_bgk_les(lat, les, ctx);
  };
  split_steps("serial bgk+stream", 3, serial, bgk_collide);
  split_steps("pooled bgk+stream", 2, threaded, bgk_collide);
  split_steps("serial mrt", 2, serial, mrt_collide);
  split_steps("pooled mrt", 2, threaded, mrt_collide);
  split_steps("serial les", 2, serial, les_collide);
  split_steps("pooled les", 2, threaded, les_collide);

  // Fused steps are stream-then-collide: one leading collide puts both
  // lattices in the post-collide state the fused cycle runs from.
  collide_bgk(dense, bgk);
  collide_bgk(other, bgk);
  for (int s = 0; s < 2; ++s) {
    fused_stream_collide(dense, bgk);
    fused_stream_collide(other, bgk);
  }
  expect_equal_active(dense, other, "fused serial");
  for (int s = 0; s < 2; ++s) {
    fused_stream_collide(dense, bgk, threaded);
    fused_stream_collide(other, bgk, threaded);
  }
  expect_equal_active(dense, other, "fused pooled");

  // A box-clipped collide, as a distributed rank runs over its owned
  // cells: the x edges cut bulk spans mid-row and the box takes in part
  // of the obstacle. Under AA the cells outside the box are left
  // un-advanced, so only the box is compared.
  const CellBox box{Int3{3, 2, 1}, Int3{9, 8, 6}};
  stream(dense);
  stream(other);
  collide_bgk(dense, bgk, serial, box);
  collide_bgk(other, bgk, threaded, box);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < dense.num_cells(); ++c) {
      const Int3 p = dense.coords(c);
      if (dense.flag(c) == CellType::Solid || p.x < box.lo.x ||
          p.x >= box.hi.x || p.y < box.lo.y || p.y >= box.hi.y ||
          p.z < box.lo.z || p.z >= box.hi.z) {
        continue;
      }
      ASSERT_EQ(dense.f(i, c), other.f(i, c))
          << "box-clipped bgk: i=" << i << " cell=" << p;
    }
  }
}

TEST(SparseLattice, KernelsMatchDenseReference) {
  expect_kernels_match_dense(StorageMode::Sparse);
}

TEST(StorageAA, KernelsMatchDenseReference) {
  expect_kernels_match_dense(StorageMode::AA);
}

TEST(SparseLattice, CopyDistributionsDemandsMatchingLayout) {
  Lattice a = make_dense();
  a.convert_storage(StorageMode::Sparse);
  Lattice b = make_dense();
  b.convert_storage(StorageMode::Sparse);
  b.init_equilibrium(Real(1), Vec3{});
  b.copy_distributions_from(a);
  expect_equal_active(a, b, "sparse copy");

  // Different solid sets mean different compact layouts: a raw buffer
  // copy would silently misalign, so it must throw instead.
  Lattice c(a.dim(), StorageMode::Sparse);
  c.fill_solid_box(Int3{0, 0, 0}, Int3{2, 2, 2});
  EXPECT_THROW(c.copy_distributions_from(a), StorageMismatchError);

  Lattice dense = make_dense();
  EXPECT_THROW(dense.copy_distributions_from(a), StorageMismatchError);
}

TEST(SparseLattice, CurvedLinksAreRejectedWithTypedError) {
  Lattice lat = make_dense();
  lat.add_curved_link({lat.idx(2, 2, 1), 3, Real(0.4)});
  EXPECT_THROW(lat.convert_storage(StorageMode::Sparse), Error);
}

TEST(SparseCheckpoint, SaveLoadRoundTripsAcrossLayouts) {
  TempFile f("sparse.gclb");
  const Lattice dense = make_dense();
  Lattice sparse = make_dense();
  sparse.convert_storage(StorageMode::Sparse);

  // Sparse save: planes expand to the canonical natural order; the v4
  // header records the mode, and the mode-less load rebuilds compact.
  io::save_checkpoint(f.path(), sparse);
  const io::CheckpointInfo info = io::read_checkpoint_info(f.path());
  EXPECT_EQ(info.version, 4u);
  EXPECT_EQ(info.storage, StorageMode::Sparse);
  const Lattice restored = io::load_checkpoint(f.path());
  EXPECT_EQ(restored.storage_mode(), StorageMode::Sparse);
  expect_equal_active(dense, restored, "sparse save/load");

  // Cross-layout restores: sparse file into dense, dense file into
  // sparse — the on-disk format is storage-agnostic.
  const Lattice as_db =
      io::load_checkpoint(f.path(), StorageMode::DoubleBuffer);
  EXPECT_EQ(as_db.storage_mode(), StorageMode::DoubleBuffer);
  expect_equal_active(dense, as_db, "sparse file as dense");

  io::save_checkpoint(f.path(), dense);
  const Lattice as_sparse = io::load_checkpoint(f.path(), StorageMode::Sparse);
  EXPECT_EQ(as_sparse.storage_mode(), StorageMode::Sparse);
  expect_equal_active(dense, as_sparse, "dense file as sparse");
}

TEST(SparseCheckpoint, RestoredSparseStateEvolvesIdentically) {
  TempFile f("sparse_evolve.gclb");
  Lattice a = make_dense();
  a.convert_storage(StorageMode::Sparse);
  io::save_checkpoint(f.path(), a);
  Lattice b = io::load_checkpoint(f.path());
  const BgkParams p{Real(0.8), Vec3{}};
  for (int s = 0; s < 3; ++s) {
    collide_bgk(a, p);
    stream(a);
    collide_bgk(b, p);
    stream(b);
  }
  expect_equal_active(a, b, "evolved restore");
}

}  // namespace
}  // namespace gc::lbm
