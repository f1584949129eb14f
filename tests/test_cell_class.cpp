// The precomputed cell classification: span/list partition vs a brute
// force per-cell reference, bit-exactness of the fused-pooled hot path
// against the serial split passes, and the rebuild-on-dirty contract.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "lbm/cell_class.hpp"
#include "lbm/collision.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gc::lbm {
namespace {

constexpr FaceBc kAllBcs[] = {FaceBc::Periodic, FaceBc::Wall, FaceBc::Inlet,
                              FaceBc::Outflow, FaceBc::FreeSlip};

void randomize_flags(Lattice& lat, u64 seed) {
  Rng rng(seed);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const double u = rng.uniform();
    CellType t = CellType::Fluid;
    if (u < 0.12) {
      t = CellType::Solid;
    } else if (u < 0.17) {
      t = CellType::Inlet;
    } else if (u < 0.22) {
      t = CellType::Outflow;
    }
    lat.set_flag(c, t);
  }
}

/// Brute-force per-cell category: 0 = bulk-fast, 1 = slow, 2 = solid.
int reference_category(const Lattice& lat, i64 cell) {
  if (lat.flag(cell) == CellType::Solid) return 2;
  return detail::is_interior_fluid(lat, lat.coords(cell)) ? 0 : 1;
}

TEST(CellClass, MatchesBruteForceUnderEveryFaceBc) {
  // Every FaceBc appears on every face across the rotated combinations;
  // the flag field is re-randomized per combination.
  for (int combo = 0; combo < 5; ++combo) {
    Lattice lat(Int3{9, 8, 7});
    for (int face = 0; face < 6; ++face) {
      lat.set_face_bc(static_cast<Face>(face), kAllBcs[(combo + face) % 5]);
    }
    randomize_flags(lat, 100 + static_cast<u64>(combo));

    const CellClass& cc = lat.cell_class();

    // Reconstruct the per-cell category from the spans and lists; every
    // cell must be covered exactly once.
    std::vector<int> got(static_cast<std::size_t>(lat.num_cells()), -1);
    auto put = [&](i64 cell, int cat) {
      ASSERT_EQ(got[static_cast<std::size_t>(cell)], -1)
          << "cell " << cell << " classified twice (combo " << combo << ")";
      got[static_cast<std::size_t>(cell)] = cat;
    };
    i64 span_cells = 0;
    for (const CellSpan& sp : cc.spans) {
      ASSERT_GT(sp.len, 0);
      for (i32 k = 0; k < sp.len; ++k) put(sp.begin + k, 0);
      span_cells += sp.len;
    }
    EXPECT_EQ(span_cells, cc.bulk_cells);
    for (const i64 c : cc.slow) put(c, 1);
    for (const i64 c : cc.solid) put(c, 2);

    for (i64 c = 0; c < lat.num_cells(); ++c) {
      ASSERT_EQ(got[static_cast<std::size_t>(c)], reference_category(lat, c))
          << "cell " << c << " at " << lat.coords(c) << " (combo " << combo
          << ")";
    }

    // Derived lists match their defining predicates.
    std::vector<i64> want_fluid_slow, want_inlet;
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      if (reference_category(lat, c) == 1 && lat.flag(c) == CellType::Fluid) {
        want_fluid_slow.push_back(c);
      }
      if (lat.flag(c) == CellType::Inlet) want_inlet.push_back(c);
    }
    EXPECT_EQ(cc.fluid_slow, want_fluid_slow);
    EXPECT_EQ(cc.inlet, want_inlet);
  }
}

TEST(CellClass, ZPartitionsAreConsistent) {
  Lattice lat(Int3{7, 6, 9});
  randomize_flags(lat, 42);
  const CellClass& cc = lat.cell_class();
  const Int3 d = lat.dim();

  ASSERT_EQ(cc.span_z.size(), static_cast<std::size_t>(d.z) + 1);
  EXPECT_EQ(cc.span_z.front(), 0);
  EXPECT_EQ(cc.span_z.back(), static_cast<i64>(cc.spans.size()));
  for (int z = 0; z < d.z; ++z) {
    for (i64 s = cc.span_z[z]; s < cc.span_z[z + 1]; ++s) {
      EXPECT_EQ(lat.coords(cc.spans[static_cast<std::size_t>(s)].begin).z, z);
    }
  }
  auto check_list = [&](const std::vector<i64>& list,
                        const std::vector<i64>& off) {
    ASSERT_EQ(off.size(), static_cast<std::size_t>(d.z) + 1);
    EXPECT_EQ(off.front(), 0);
    EXPECT_EQ(off.back(), static_cast<i64>(list.size()));
    for (int z = 0; z < d.z; ++z) {
      for (i64 k = off[z]; k < off[z + 1]; ++k) {
        EXPECT_EQ(lat.coords(list[static_cast<std::size_t>(k)]).z, z);
      }
    }
  };
  check_list(cc.slow, cc.slow_z);
  check_list(cc.fluid_slow, cc.fluid_slow_z);
  check_list(cc.solid, cc.solid_z);
}

TEST(CellClass, SpansNeverCrossRows) {
  Lattice lat(Int3{8, 8, 8});
  // All-fluid interior: bulk rows span x=1..6 of every interior row.
  const CellClass& cc = lat.cell_class();
  const Int3 d = lat.dim();
  for (const CellSpan& sp : cc.spans) {
    const Int3 a = lat.coords(sp.begin);
    const Int3 b = lat.coords(sp.begin + sp.len - 1);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.z, b.z);
    EXPECT_EQ(a.x, 1);
    EXPECT_EQ(b.x, d.x - 2);
  }
  EXPECT_EQ(static_cast<i64>(cc.spans.size()),
            i64(d.y - 2) * (d.z - 2));
}

TEST(CellClass, FusedPooledBitExactVsSerialSplit) {
  // Mixed inlet/wall/outflow/free-slip domain with solids: n split
  // (collide; stream) steps plus one collide must equal one pre-collide
  // plus n fused pooled steps — bit-exact, not approximately.
  const Int3 dim{14, 10, 9};
  const BgkParams p{Real(0.8), Vec3{}};
  const int steps = 6;
  ThreadPool pool(4);

  auto make = [&] {
    Lattice lat(dim);
    lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
    lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
    lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
    lat.set_face_bc(FACE_ZMAX, FaceBc::FreeSlip);
    lat.set_inlet(Real(1), Vec3{Real(0.04), 0, 0});
    lat.init_equilibrium(Real(1), Vec3{Real(0.04), 0, 0});
    lat.fill_solid_box(Int3{4, 3, 2}, Int3{7, 6, 5});
    lat.fill_solid_box(Int3{9, 1, 1}, Int3{11, 4, 7});
    // A few flag-level inlet/outflow cells on top of the face BCs.
    lat.set_flag(Int3{1, 5, 5}, CellType::Inlet);
    lat.set_flag(Int3{12, 5, 5}, CellType::Outflow);
    return lat;
  };

  Lattice split = make();
  Lattice fused = make();

  for (int s = 0; s < steps; ++s) {
    collide_bgk(split, p);
    stream(split);
  }
  collide_bgk(split, p);

  collide_bgk(fused, p);
  const StepContext ctx{&pool, nullptr, 0};
  for (int s = 0; s < steps; ++s) fused_stream_collide(fused, p, ctx);

  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < split.num_cells(); ++c) {
      ASSERT_EQ(split.f(i, c), fused.f(i, c))
          << "i=" << i << " cell=" << c << " at " << split.coords(c);
    }
  }
}

TEST(CellClass, RebuildsExactlyOncePerMutation) {
  Lattice lat(Int3{8, 8, 8});
  EXPECT_EQ(lat.cell_class_rebuilds(), 0);
  lat.cell_class();
  lat.cell_class();
  EXPECT_EQ(lat.cell_class_rebuilds(), 1);

  // A batch of mutations costs one rebuild at the next query.
  lat.fill_solid_box(Int3{2, 2, 2}, Int3{5, 5, 5});
  lat.set_flag(Int3{6, 6, 6}, CellType::Inlet);
  const CellClass& cc = lat.cell_class();
  EXPECT_EQ(lat.cell_class_rebuilds(), 2);
  EXPECT_EQ(static_cast<i64>(cc.solid.size()), lat.count(CellType::Solid));
  EXPECT_EQ(cc.inlet, std::vector<i64>{lat.idx(6, 6, 6)});

  // Steady stepping never rebuilds.
  lat.set_face_bc(FACE_XMIN, FaceBc::Inlet);
  lat.set_inlet(Real(1), Vec3{Real(0.02), 0, 0});
  lat.init_equilibrium(Real(1), Vec3{Real(0.02), 0, 0});
  const i64 before = lat.cell_class_rebuilds();
  for (int s = 0; s < 4; ++s) {
    collide_bgk(lat, BgkParams{Real(0.8), Vec3{}});
    stream(lat);
  }
  EXPECT_EQ(lat.cell_class_rebuilds(), before + 1);  // one lazy rebuild
  for (int s = 0; s < 4; ++s) {
    fused_stream_collide(lat, BgkParams{Real(0.8), Vec3{}});
  }
  EXPECT_EQ(lat.cell_class_rebuilds(), before + 1);

  // set_flag after stepping dirties again.
  lat.set_flag(Int3{1, 1, 1}, CellType::Solid);
  lat.cell_class();
  EXPECT_EQ(lat.cell_class_rebuilds(), before + 2);
}

// ---------------------------------------------------------------------------
// InnerOuterClass: the inner/outer split driving the executed
// compute–communication overlap (stream_inner / stream_outer).

/// Reference predicate: a cell is outer iff, along any ghosted axis, it
/// lies in the ghost margin or within one cell of it (one-cell shell —
/// the pull pattern reads Chebyshev distance <= 1).
bool reference_outer(const Lattice& lat, i64 cell, Int3 gl, Int3 gh) {
  const Int3 p = lat.coords(cell);
  const Int3 d = lat.dim();
  const int pv[3] = {p.x, p.y, p.z};
  const int dv[3] = {d.x, d.y, d.z};
  const int glv[3] = {gl.x, gl.y, gl.z};
  const int ghv[3] = {gh.x, gh.y, gh.z};
  for (int a = 0; a < 3; ++a) {
    if (glv[a] > 0 && pv[a] <= glv[a]) return true;
    if (ghv[a] > 0 && pv[a] >= dv[a] - ghv[a] - 1) return true;
  }
  return false;
}

TEST(InnerOuterClass, PartitionsClassificationExactly) {
  // Random flag fields x random ghost widths 0..2 per side: the split
  // must cover every cell of the parent classification exactly once,
  // keep inner/outer disjoint, preserve each cell's category, and agree
  // with the brute-force outer predicate.
  Rng rng(2024);
  for (int it = 0; it < 10; ++it) {
    Lattice lat(Int3{9, 8, 7});
    randomize_flags(lat, 500 + static_cast<u64>(it));
    const Int3 gl{static_cast<int>(rng.uniform_int(0, 2)),
                  static_cast<int>(rng.uniform_int(0, 2)),
                  static_cast<int>(rng.uniform_int(0, 2))};
    const Int3 gh{static_cast<int>(rng.uniform_int(0, 2)),
                  static_cast<int>(rng.uniform_int(0, 2)),
                  static_cast<int>(rng.uniform_int(0, 2))};
    InnerOuterClass io;
    io.build(lat, gl, gh);

    // -1 = unseen, 0 = inner, 1 = outer. put() enforces disjointness.
    std::vector<int> got(static_cast<std::size_t>(lat.num_cells()), -1);
    auto put = [&](i64 cell, int side, int cat) {
      ASSERT_EQ(got[static_cast<std::size_t>(cell)], -1)
          << "cell " << cell << " split twice (it " << it << ")";
      got[static_cast<std::size_t>(cell)] = side;
      ASSERT_EQ(reference_category(lat, cell), cat)
          << "cell " << cell << " changed category (it " << it << ")";
    };
    i64 inner_n = 0, outer_n = 0;
    for (const CellSpan& sp : io.inner_spans) {
      for (i32 k = 0; k < sp.len; ++k) put(sp.begin + k, 0, 0);
      inner_n += sp.len;
    }
    for (const CellSpan& sp : io.outer_spans) {
      for (i32 k = 0; k < sp.len; ++k) put(sp.begin + k, 1, 0);
      outer_n += sp.len;
    }
    for (const i64 c : io.inner_slow) put(c, 0, 1);
    for (const i64 c : io.outer_slow) put(c, 1, 1);
    for (const i64 c : io.inner_solid) put(c, 0, 2);
    for (const i64 c : io.outer_solid) put(c, 1, 2);
    inner_n += static_cast<i64>(io.inner_slow.size() + io.inner_solid.size());
    outer_n += static_cast<i64>(io.outer_slow.size() + io.outer_solid.size());

    EXPECT_EQ(inner_n, io.inner_cells);
    EXPECT_EQ(outer_n, io.outer_cells);
    EXPECT_EQ(inner_n + outer_n, lat.num_cells());
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      ASSERT_EQ(got[static_cast<std::size_t>(c)],
                reference_outer(lat, c, gl, gh) ? 1 : 0)
          << "cell " << c << " at " << lat.coords(c) << " gl " << gl << " gh "
          << gh << " (it " << it << ")";
    }
  }
}

TEST(InnerOuterClass, InnerStreamNeverReadsGhostCells) {
  // The sentinel proof behind the overlap engine: poison every ghost
  // cell with NaN, stream the inner region, restore the ghosts, stream
  // the outer region — the result must be bit-identical to a plain
  // stream() of the clean lattice. One inner cell pulling one poisoned
  // ghost value would leave a NaN and fail the comparison.
  const Int3 dim{12, 10, 9};
  const Int3 gl{1, 1, 0};
  const Int3 gh{1, 0, 0};
  auto make = [&] {
    Lattice lat(dim);
    // Ghosted axes are never periodic in the distributed solver (the
    // decomposed-axis precondition); periodic wrap would let a boundary
    // cell legitimately pull from the opposite margin.
    lat.set_face_bc(FACE_XMIN, FaceBc::Wall);
    lat.set_face_bc(FACE_XMAX, FaceBc::Outflow);
    lat.set_face_bc(FACE_YMIN, FaceBc::Wall);
    lat.set_face_bc(FACE_YMAX, FaceBc::Wall);
    lat.set_face_bc(FACE_ZMIN, FaceBc::Wall);
    lat.set_face_bc(FACE_ZMAX, FaceBc::FreeSlip);
    lat.init_equilibrium(Real(1), Vec3{Real(0.03), 0, 0});
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      const Int3 p = lat.coords(c);
      lat.set_f(3, c, lat.f(3, c) + Real(0.001) * Real((p.x + p.y + p.z) % 7));
    }
    lat.fill_solid_box(Int3{5, 4, 3}, Int3{8, 7, 6});
    return lat;
  };

  Lattice clean = make();
  Lattice split = make();
  InnerOuterClass io;
  io.build(split, gl, gh);

  auto is_ghost = [&](Int3 p) {
    return (gl.x > 0 && p.x < gl.x) || (gh.x > 0 && p.x >= dim.x - gh.x) ||
           (gl.y > 0 && p.y < gl.y) || (gh.y > 0 && p.y >= dim.y - gh.y) ||
           (gl.z > 0 && p.z < gl.z) || (gh.z > 0 && p.z >= dim.z - gh.z);
  };
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  std::vector<std::pair<i64, std::array<Real, Q>>> saved;
  for (i64 c = 0; c < split.num_cells(); ++c) {
    if (!is_ghost(split.coords(c))) continue;
    std::array<Real, Q> vals;
    for (int i = 0; i < Q; ++i) {
      vals[static_cast<std::size_t>(i)] = split.f(i, c);
      split.set_f(i, c, nan);
    }
    saved.emplace_back(c, vals);
  }
  ASSERT_FALSE(saved.empty());

  stream_inner(split, io);
  // Restore the ghosts (the overlap engine's unpack), then the outer
  // pass — which legitimately reads them — completes the step.
  for (const auto& [c, vals] : saved) {
    for (int i = 0; i < Q; ++i) {
      split.set_f(i, c, vals[static_cast<std::size_t>(i)]);
    }
  }
  stream_outer(split, io);

  stream(clean);
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < clean.num_cells(); ++c) {
      ASSERT_FALSE(std::isnan(split.f(i, c)))
          << "i=" << i << " cell=" << c << " at " << clean.coords(c);
      ASSERT_EQ(clean.f(i, c), split.f(i, c))
          << "i=" << i << " cell=" << c << " at " << clean.coords(c);
    }
  }
}

}  // namespace
}  // namespace gc::lbm
