// The precomputed cell classification: span/list partition and the AA
// rule links vs a brute force per-cell reference, bit-exactness of the
// fused-pooled hot path against the serial split passes, and the
// rebuild-on-dirty contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

/// Random solid, inlet and outflow cells among fluid, `scale` times the
/// default shares (12%, 5% and 5%).
void randomize_flags(Lattice& lat, u64 seed, double scale = 1) {
  Rng rng(seed);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const double u = rng.uniform();
    CellType t = CellType::Fluid;
    if (u < 0.12 * scale) {
      t = CellType::Solid;
    } else if (u < 0.17 * scale) {
      t = CellType::Inlet;
    } else if (u < 0.22 * scale) {
      t = CellType::Outflow;
    }
    lat.set_flag(c, t);
  }
}

/// The pull source of direction i at p, wrapped across periodic faces;
/// false when the link crosses a face of any other kind.
bool wrapped_source(const Lattice& lat, Int3 p, int i, Int3& src) {
  const Int3 d = lat.dim();
  src = p - C[i];
  for (int a = 0; a < 3; ++a) {
    if (src[a] >= 0 && src[a] < d[a]) continue;
    const Face face = static_cast<Face>(src[a] < 0 ? 2 * a : 2 * a + 1);
    if (lat.face_bc(face) != FaceBc::Periodic) return false;
    src[a] = (src[a] + d[a]) % d[a];
  }
  return true;
}

/// Brute-force bulk test: p is a fluid cell whose 18 pulls, wrapped
/// across periodic faces, all reach fluid cells, so streaming it is a
/// plain copy from its sources.
bool reference_bulk(const Lattice& lat, Int3 p) {
  for (int i = 0; i < Q; ++i) {
    Int3 src;
    if (!wrapped_source(lat, p, i, src)) return false;
    if (lat.flag(src) != CellType::Fluid) return false;
  }
  return true;
}

/// Whether any pull of cell p leaves the domain (and so wraps, if p is
/// bulk).
bool reference_wraps(const Lattice& lat, Int3 p) {
  for (int i = 0; i < Q; ++i) {
    if (!lat.in_bounds(p - C[i])) return true;
  }
  return false;
}

/// Brute-force rule links of cell p: bit i when the pull of direction i
/// crosses a face that is not periodic or reaches a cell that is not
/// fluid.
u32 reference_rule_links(const Lattice& lat, Int3 p) {
  u32 mask = 0;
  for (int i = 0; i < Q; ++i) {
    Int3 src;
    if (!wrapped_source(lat, p, i, src) || lat.flag(src) != CellType::Fluid) {
      mask |= u32(1) << i;
    }
  }
  return mask;
}

/// Brute-force per-cell category: 0 = bulk-fast, 1 = slow, 2 = solid.
int reference_category(const Lattice& lat, i64 cell) {
  if (lat.flag(cell) == CellType::Solid) return 2;
  return reference_bulk(lat, lat.coords(cell)) ? 0 : 1;
}

TEST(CellClass, MatchesBruteForceUnderEveryFaceBc) {
  // Every FaceBc appears on every face across the rotated combinations;
  // the flag field is re-randomized per combination. Combination 5 is a
  // periodic box with few obstacles, so most of its face cells are bulk
  // and their pulls wrap on every axis. Each combination is classified on
  // a Sparse and on an AA lattice: the same partition, plus the rule links
  // under AA.
  i64 x_wrapping = 0;
  i64 rule_links = 0;
  for (int run = 0; run < 12; ++run) {
    const int combo = run / 2;
    const StorageMode mode =
        run % 2 ? StorageMode::AA : StorageMode::Sparse;
    Lattice lat(Int3{9, 8, 7}, mode);
    for (int face = 0; face < 6; ++face) {
      lat.set_face_bc(static_cast<Face>(face),
                      combo == 5 ? FaceBc::Periodic
                                 : kAllBcs[(combo + face) % 5]);
    }
    randomize_flags(lat, 100 + static_cast<u64>(combo), combo == 5 ? 0.1 : 1);

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
      bool wraps = false;
      for (i32 k = 0; k < sp.len; ++k) {
        put(sp.begin + k, 0);
        const Int3 p = lat.coords(sp.begin + k);
        wraps = wraps || reference_wraps(lat, p);
        if (p.x == 0 || p.x == lat.dim().x - 1) {
          // Its x pulls wrap: any other cell in its span would pull x
          // from a different offset.
          EXPECT_EQ(sp.len, 1) << "x-wrapping cell " << p << " (combo "
                               << combo << ")";
          ++x_wrapping;
        }
      }
      EXPECT_EQ(sp.wraps, wraps) << "span at " << lat.coords(sp.begin)
                                 << " (combo " << combo << ")";
      span_cells += sp.len;
    }
    EXPECT_EQ(span_cells, cc.bulk_cells);
    for (const i64 c : cc.slow) put(c, 1);
    // Solid cells are in no list: any that a span or the slow list holds
    // is classified twice.
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      if (lat.flag(c) == CellType::Solid) put(c, 2);
    }

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

    // Under AA each slow cell carries its rule links, and its first one's
    // offset in the fixup scratch: cell order, then direction order.
    if (mode != StorageMode::AA) {
      EXPECT_TRUE(cc.slow_links.empty());
      EXPECT_EQ(cc.rule_links, 0);
      continue;
    }
    ASSERT_EQ(cc.slow_links.size(), cc.slow.size());
    i64 at = 0;
    for (std::size_t k = 0; k < cc.slow.size(); ++k) {
      const Int3 p = lat.coords(cc.slow[k]);
      const u32 want = reference_rule_links(lat, p);
      EXPECT_NE(want, 0u) << "slow cell " << p << " has no rule link";
      EXPECT_EQ(cc.slow_links[k].mask, want)
          << "cell " << p << " (combo " << combo << ")";
      EXPECT_EQ(cc.slow_links[k].at, at)
          << "cell " << p << " (combo " << combo << ")";
      at += std::popcount(want);
    }
    EXPECT_EQ(cc.rule_links, at);
    rule_links += at;
  }
  EXPECT_GT(x_wrapping, 0);
  EXPECT_GT(rule_links, 0);
}

TEST(CellClass, CurvedLinksAreRuleLinksOfTheirCells) {
  // Under AA the reflected direction of a curved link is a rule link of
  // its cell whatever lies beyond, so a cell that would be bulk turns
  // slow; the link's slot is that rule link's fixup offset, and a link on
  // a solid cell has none.
  Lattice lat(Int3{8, 8, 8});
  const i64 bulk = lat.idx(4, 4, 4);  // all-fluid neighbours
  const i64 solid = lat.idx(2, 2, 2);
  lat.set_flag(solid, CellType::Solid);
  const std::vector<i64>& before = lat.cell_class().slow;
  ASSERT_EQ(std::find(before.begin(), before.end(), bulk), before.end());
  lat.add_curved_link({bulk, 1, Real(0.3)});
  lat.add_curved_link({bulk, 4, Real(0.6)});
  lat.add_curved_link({solid, 1, Real(0.5)});

  const CellClass& cc = lat.cell_class();
  const auto it = std::find(cc.slow.begin(), cc.slow.end(), bulk);
  ASSERT_NE(it, cc.slow.end());
  const CellClass::RuleLinks r =
      cc.slow_links[static_cast<std::size_t>(it - cc.slow.begin())];
  const u32 reflected = (u32(1) << OPP[1]) | (u32(1) << OPP[4]);
  EXPECT_EQ(r.mask & reflected, reflected);
  ASSERT_EQ(cc.curved_at.size(), 3u);
  auto slot = [&r](int dir) {
    return i64(r.at) + std::popcount(r.mask & ((u32(1) << dir) - 1));
  };
  EXPECT_EQ(cc.curved_at[0], slot(OPP[1]));
  EXPECT_EQ(cc.curved_at[1], slot(OPP[4]));
  EXPECT_EQ(cc.curved_at[2], -1);

  // Sparse storage rejects curved links, so it has no such slot.
  Lattice sparse(Int3{8, 8, 8}, StorageMode::Sparse);
  EXPECT_THROW(sparse.add_curved_link({bulk, 1, Real(0.3)}), Error);
  EXPECT_TRUE(sparse.cell_class().curved_at.empty());
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
}

TEST(CellClass, SpansNeverCrossRows) {
  const Int3 d{8, 8, 8};
  {
    // All-fluid periodic box: every cell is bulk, and each row is the
    // spans [0,1), [1,7), [7,8), the x-wrapping cells on their own.
    Lattice lat(d);
    const CellClass& cc = lat.cell_class();
    EXPECT_TRUE(cc.slow.empty());
    EXPECT_EQ(cc.bulk_cells, lat.num_cells());
    ASSERT_EQ(static_cast<i64>(cc.spans.size()), 3 * i64(d.y) * d.z);
    for (std::size_t s = 0; s < cc.spans.size(); ++s) {
      const CellSpan& sp = cc.spans[s];
      const Int3 a = lat.coords(sp.begin);
      const Int3 b = lat.coords(sp.begin + sp.len - 1);
      const int row = static_cast<int>(s / 3);
      EXPECT_EQ(a.y, row % d.y);
      EXPECT_EQ(a.z, row / d.y);
      EXPECT_EQ(b.y, a.y);
      EXPECT_EQ(b.z, a.z);
      const int lo[3] = {0, 1, d.x - 1}, hi[3] = {0, d.x - 2, d.x - 1};
      EXPECT_EQ(a.x, lo[s % 3]);
      EXPECT_EQ(b.x, hi[s % 3]);
    }
  }
  {
    // All-fluid walled box: bulk rows span x=1..6 of every interior row.
    Lattice lat(d);
    for (int face = 0; face < 6; ++face) {
      lat.set_face_bc(static_cast<Face>(face), FaceBc::Wall);
    }
    const CellClass& cc = lat.cell_class();
    for (const CellSpan& sp : cc.spans) {
      const Int3 a = lat.coords(sp.begin);
      const Int3 b = lat.coords(sp.begin + sp.len - 1);
      EXPECT_EQ(a.y, b.y);
      EXPECT_EQ(a.z, b.z);
      EXPECT_EQ(a.x, 1);
      EXPECT_EQ(b.x, d.x - 2);
      EXPECT_FALSE(sp.wraps);
    }
    EXPECT_EQ(static_cast<i64>(cc.spans.size()), i64(d.y - 2) * (d.z - 2));
  }
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
  EXPECT_EQ(cc.bulk_cells + static_cast<i64>(cc.slow.size()),
            lat.num_cells() - lat.count(CellType::Solid));
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

}  // namespace
}  // namespace gc::lbm
