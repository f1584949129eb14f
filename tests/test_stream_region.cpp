// The stream region pass: one stream() equals the pull rule cell by cell
// and the fused step the pull rule then BGK, also when a pooled pass
// splits the lattice into concurrent z-chunks; streaming a lattice box by
// box and then finishing equals one stream() bit for bit on every storage
// mode, serial and pooled; the fused step (the same pass with BGK) equals
// a stream then a collide; the overlap's inner box never reads a ghost
// cell; and every rank's inner box and shell partition its local lattice
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/border_exchange.hpp"
#include "lbm/collision.hpp"
#include "lbm/stream.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gc::lbm {
namespace {

constexpr FaceBc kAllBcs[] = {FaceBc::Periodic, FaceBc::Wall, FaceBc::Inlet,
                              FaceBc::Outflow, FaceBc::FreeSlip};
constexpr StorageMode kModes[] = {StorageMode::AA, StorageMode::Sparse};

/// Random flags (solid, inlet and outflow cells among fluid, at `scale`
/// times 12%, 4% and 4%) and random near-equilibrium values, set in the
/// AA layout and then converted to `mode`.
void randomize(Lattice& lat, StorageMode mode, u64 seed, double scale = 1) {
  Rng rng(seed);
  for (i64 c = 0; c < lat.num_cells(); ++c) {
    const double u = rng.uniform();
    lat.set_flag(c, u < 0.12 * scale   ? CellType::Solid
                    : u < 0.16 * scale ? CellType::Inlet
                    : u < 0.20 * scale ? CellType::Outflow
                                       : CellType::Fluid);
  }
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < lat.num_cells(); ++c) {
      lat.set_f(i, c, W[i] * Real(rng.uniform(0.8, 1.2)));
    }
  }
  lat.convert_storage(mode);
}

/// Face BC combination `combo` (0..4): every FaceBc lands on every face
/// across the five combinations. Combination 5 is a periodic box with a
/// tenth of the obstacles, so most cells on its faces are bulk cells
/// whose pulls wrap.
constexpr int kCombos = 6;
Lattice make_lattice(Int3 dim, StorageMode mode, int combo, u64 seed) {
  Lattice lat(dim);
  for (int face = 0; face < 6; ++face) {
    lat.set_face_bc(static_cast<Face>(face), combo == 5
                                                 ? FaceBc::Periodic
                                                 : kAllBcs[(combo + face) % 5]);
  }
  lat.set_inlet(Real(1), Vec3{Real(0.04), Real(0.01), 0});
  randomize(lat, mode, seed, combo == 5 ? 0.1 : 1);
  return lat;
}

/// A random partition of a lattice of dimensions d into boxes, in random
/// order: each axis is cut at up to two random positions (repeats give
/// empty boxes), and the outer boxes reach past the lattice, which the
/// pass clips away.
std::vector<CellBox> random_partition(Int3 d, Rng& rng) {
  std::array<std::vector<int>, 3> cuts;
  for (int a = 0; a < 3; ++a) {
    cuts[a] = {-2, CellBox::kUnbounded};
    const int n = static_cast<int>(rng.uniform_int(0, 2));
    for (int k = 0; k < n; ++k) {
      cuts[a].push_back(static_cast<int>(rng.uniform_int(1, d[a] - 1)));
    }
    std::sort(cuts[a].begin(), cuts[a].end());
  }
  std::vector<CellBox> boxes;
  for (std::size_t i = 0; i + 1 < cuts[0].size(); ++i) {
    for (std::size_t j = 0; j + 1 < cuts[1].size(); ++j) {
      for (std::size_t k = 0; k + 1 < cuts[2].size(); ++k) {
        boxes.push_back(CellBox{Int3{cuts[0][i], cuts[1][j], cuts[2][k]},
                                Int3{cuts[0][i + 1], cuts[1][j + 1],
                                     cuts[2][k + 1]}});
      }
    }
  }
  for (std::size_t i = boxes.size(); i > 1; --i) {
    const i64 j = rng.uniform_int(0, static_cast<i64>(i) - 1);
    std::swap(boxes[i - 1], boxes[static_cast<std::size_t>(j)]);
  }
  return boxes;
}

void expect_same_field(const Lattice& want, const Lattice& got,
                       const std::string& what) {
  for (int i = 0; i < Q; ++i) {
    for (i64 c = 0; c < want.num_cells(); ++c) {
      ASSERT_FALSE(std::isnan(got.f(i, c)))
          << what << " i=" << i << " at " << want.coords(c);
      ASSERT_EQ(want.f(i, c), got.f(i, c))
          << what << " i=" << i << " at " << want.coords(c);
    }
  }
}

/// Holds `got`, one stream of `pre` (with BGK when bgk is set), to the
/// pull rule applied cell by cell to pre: pull_cell at fluid and outflow
/// cells, then BGK at fluid cells when bgk is set; the inlet equilibrium
/// at inlet cells; zeros at solid cells.
void expect_pull_rule(const Lattice& pre, const Lattice& got,
                      const BgkParams* bgk, const std::string& what) {
  Real inlet[Q];
  equilibrium_all(pre.inlet_density(), pre.inlet_velocity(), inlet);
  Real f[Q];
  for (i64 c = 0; c < pre.num_cells(); ++c) {
    switch (pre.flag(c)) {
      case CellType::Solid:
        for (int i = 0; i < Q; ++i) f[i] = Real(0);
        break;
      case CellType::Inlet:
        for (int i = 0; i < Q; ++i) f[i] = inlet[i];
        break;
      case CellType::Outflow:
        detail::pull_cell(pre, c, f);
        break;
      case CellType::Fluid:
        detail::pull_cell(pre, c, f);
        if (bgk) collide_bgk_cell(f, bgk->tau, bgk->force);
        break;
    }
    for (int i = 0; i < Q; ++i) {
      ASSERT_EQ(f[i], got.f(i, c))
          << what << " i=" << i << " at " << pre.coords(c) << " ("
          << (pre.flag(c) == CellType::Fluid ? "fluid" : "not fluid") << ")";
    }
  }
}

TEST(StreamRegion, StreamEqualsThePullRule) {
  // Every storage mode against the one pull rule, not against another
  // mode: one stream(), and one fused step, of a collided lattice, serial
  // and pooled, on every face-BC combination, the periodic box included.
  const Int3 dim{9, 7, 6};
  const BgkParams bgk{Real(0.8), Vec3{Real(2e-5), Real(-1e-5), Real(3e-5)}};
  ThreadPool pool(3);
  for (const StorageMode mode : kModes) {
    for (int combo = 0; combo < kCombos; ++combo) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const StepContext ctx{p, nullptr, 0};
        const std::string what = std::string(storage_mode_name(mode)) +
                                 " combo " + std::to_string(combo) +
                                 (p ? " pooled" : " serial");
        Lattice lat = make_lattice(dim, mode, combo, 700 + u64(combo));
        collide_bgk(lat, bgk);
        const Lattice pre = lat;
        Lattice fused = lat;
        stream(lat, ctx);
        expect_pull_rule(pre, lat, nullptr, what + " stream");
        fused_stream_collide(fused, bgk, ctx);
        expect_pull_rule(pre, fused, &bgk, what + " fused");
      }
    }
  }
}

TEST(StreamRegion, UncollidedStreamEqualsThePullRule) {
  // A stream with no collide before it: the AA finish first advances the
  // lattice with the identity operator, so two streams in a row stream
  // from both parities, and each equals the pull rule. Every storage mode
  // and face-BC combination, serial and pooled.
  const Int3 dim{9, 7, 6};
  ThreadPool pool(3);
  for (const StorageMode mode : kModes) {
    for (int combo = 0; combo < kCombos; ++combo) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const StepContext ctx{p, nullptr, 0};
        Lattice lat = make_lattice(dim, mode, combo, 800 + u64(combo));
        for (int s = 0; s < 2; ++s) {
          const std::string what = std::string(storage_mode_name(mode)) +
                                   " combo " + std::to_string(combo) +
                                   (p ? " pooled" : " serial") + " stream " +
                                   std::to_string(s);
          const Lattice pre = lat;
          stream(lat, ctx);
          if (mode == StorageMode::AA) {
            EXPECT_EQ(lat.aa_phase(), s == 0 ? 2 : 0) << what;
          }
          expect_pull_rule(pre, lat, nullptr, what);
        }
      }
    }
  }
}

TEST(StreamRegion, PooledZChunksEqualThePullRule) {
  // A pooled pass runs the 9 x 7 x 6 lattices above as one inline chunk.
  // This lattice splits into two z-chunks on the three-thread pool, so
  // the stream and the fused step run them concurrently, on every storage
  // mode, with every face BC on some face and on the periodic box.
  const Int3 dim{16, 16, 64};
  ASSERT_GE(dim.z, 2 * ThreadPool::min_chunk_indices(i64(dim.x) * dim.y));
  const BgkParams bgk{Real(0.8), Vec3{Real(2e-5), Real(-1e-5), Real(3e-5)}};
  ThreadPool pool(3);
  const StepContext ctx{&pool, nullptr, 0};
  for (const StorageMode mode : kModes) {
    for (const int combo : {0, 5}) {
      const std::string what = std::string(storage_mode_name(mode)) +
                               " combo " + std::to_string(combo);
      Lattice lat = make_lattice(dim, mode, combo, 900 + u64(combo));
      collide_bgk(lat, bgk);
      const Lattice pre = lat;
      Lattice fused = lat;
      stream(lat, ctx);
      expect_pull_rule(pre, lat, nullptr, what + " stream");
      fused_stream_collide(fused, bgk, ctx);
      expect_pull_rule(pre, fused, &bgk, what + " fused");
    }
  }
}

TEST(StreamRegion, AnyPartitionEqualsStream) {
  // Two steps, so AA streams from both parities.
  const Int3 dim{9, 7, 6};
  const BgkParams bgk{Real(0.8), Vec3{}};
  ThreadPool pool(3);
  Rng rng(91);
  for (const StorageMode mode : kModes) {
    for (int combo = 0; combo < kCombos; ++combo) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const StepContext ctx{p, nullptr, 0};
        const u64 seed = 300 + static_cast<u64>(combo);
        Lattice whole = make_lattice(dim, mode, combo, seed);
        Lattice parts = make_lattice(dim, mode, combo, seed);
        for (int step = 0; step < 2; ++step) {
          collide_bgk(whole, bgk);
          collide_bgk(parts, bgk);
          stream(whole);
          for (const CellBox& box : random_partition(dim, rng)) {
            stream_region(parts, box, ctx);
          }
          finish_stream(parts, ctx);
          expect_same_field(
              whole, parts,
              std::string(storage_mode_name(mode)) + " combo " +
                  std::to_string(combo) + (p ? " pooled" : " serial") +
                  " step " + std::to_string(step));
        }
      }
    }
  }
}

TEST(StreamRegion, FusedEqualsStreamThenCollide) {
  // The fused step is the region pass and the finish with BGK as their
  // operator: one collide then three fused steps equals one collide then
  // three (stream; collide) steps bit for bit, on every storage mode and
  // face-BC combination, serial and pooled, without and with a Guo body
  // force. Three steps, so AA fuses from both parities.
  const Int3 dim{9, 7, 6};
  const Vec3 forces[] = {Vec3{}, Vec3{Real(2e-5), Real(-1e-5), Real(3e-5)}};
  ThreadPool pool(3);
  for (const StorageMode mode : kModes) {
    for (int combo = 0; combo < kCombos; ++combo) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        for (const Vec3& force : forces) {
          const StepContext ctx{p, nullptr, 0};
          const BgkParams bgk{Real(0.8), force};
          const u64 seed = 500 + static_cast<u64>(combo);
          Lattice split = make_lattice(dim, mode, combo, seed);
          Lattice fused = make_lattice(dim, mode, combo, seed);
          collide_bgk(split, bgk, ctx);
          collide_bgk(fused, bgk, ctx);
          for (int step = 0; step < 3; ++step) {
            stream(split, ctx);
            collide_bgk(split, bgk, ctx);
            fused_stream_collide(fused, bgk, ctx);
          }
          expect_same_field(split, fused,
                            std::string(storage_mode_name(mode)) + " combo " +
                                std::to_string(combo) +
                                (p ? " pooled" : " serial") +
                                (force.x != 0 ? " forced" : ""));
        }
      }
    }
  }
}

TEST(StreamRegion, InnerStreamNeverReadsGhostCells) {
  // The sentinel proof behind the overlap: poison every ghost cell with
  // NaN, stream the rank's inner box, restore the ghosts (the exchange's
  // unpack), stream the shell boxes and finish. The result must equal a
  // plain stream() of the clean lattice: one inner cell pulling one
  // poisoned value would leave a NaN. Under AA the inner pass only
  // collects the slow cells' pulls; the flip that streams the bulk runs
  // in the finish, after the ghosts are restored.
  struct Ghosts {
    Int3 lo, hi;
  };
  const Ghosts kGhosts[] = {{Int3{1, 1, 0}, Int3{1, 0, 0}},
                            {Int3{0, 1, 1}, Int3{0, 1, 1}},
                            {Int3{1, 1, 1}, Int3{1, 1, 1}}};
  const BgkParams bgk{Real(0.8), Vec3{}};
  for (const StorageMode mode : kModes) {
    for (const Ghosts& g : kGhosts) {
      core::LocalDomain ld;
      ld.global = core::SubDomain{0, Int3{0, 0, 0}, Int3{9, 8, 7}};
      ld.ghost_lo = g.lo;
      ld.ghost_hi = g.hi;
      auto make = [&] {
        // Faces toward a neighbor are Outflow, as the scatter sets them;
        // the others carry a wall, a free-slip lid and an inlet.
        Lattice lat(ld.local_dim());
        const FaceBc own[6] = {FaceBc::Inlet, FaceBc::Wall,
                               FaceBc::Wall,  FaceBc::FreeSlip,
                               FaceBc::Wall,  FaceBc::FreeSlip};
        for (int face = 0; face < 6; ++face) {
          lat.set_face_bc(static_cast<Face>(face), ld.has_neighbor(face)
                                                       ? FaceBc::Outflow
                                                       : own[face]);
        }
        lat.set_inlet(Real(1), Vec3{Real(0.03), 0, 0});
        randomize(lat, mode, 77);
        collide_bgk(lat, bgk);
        return lat;
      };
      Lattice clean = make();
      Lattice split = make();

      const CellBox own{ld.own_lo(), ld.own_hi()};
      const Real nan = std::numeric_limits<Real>::quiet_NaN();
      std::vector<std::pair<i64, std::array<Real, Q>>> saved;
      for (i64 c = 0; c < split.num_cells(); ++c) {
        const Int3 p = split.coords(c);
        bool ghost = false;
        for (int a = 0; a < 3; ++a) {
          ghost = ghost || p[a] < own.lo[a] || p[a] >= own.hi[a];
        }
        if (!ghost) continue;
        std::array<Real, Q> vals;
        for (int i = 0; i < Q; ++i) {
          vals[static_cast<std::size_t>(i)] = split.f(i, c);
          split.set_f(i, c, nan);
        }
        saved.emplace_back(c, vals);
      }
      ASSERT_FALSE(saved.empty());

      stream_region(split, ld.inner_box());
      for (const auto& [c, vals] : saved) {
        for (int i = 0; i < Q; ++i) {
          split.set_f(i, c, vals[static_cast<std::size_t>(i)]);
        }
      }
      for (const CellBox& box : ld.shell_boxes()) stream_region(split, box);
      finish_stream(split);

      stream(clean);
      expect_same_field(clean, split,
                        std::string(storage_mode_name(mode)) + " ghost_lo " +
                            std::to_string(g.lo.x) + std::to_string(g.lo.y) +
                            std::to_string(g.lo.z) + " ghost_hi " +
                            std::to_string(g.hi.x) + std::to_string(g.hi.y) +
                            std::to_string(g.hi.z));
    }
  }
}

TEST(InnerShell, PartitionsEveryRankExactly) {
  // Random 1D, 2D and 3D grids, blocks down to one cell thick: on every
  // rank the inner box and the shell boxes cover each local cell exactly
  // once, the shell has at most six non-empty boxes, no inner cell lies
  // within one cell of a ghost layer, and every shell cell does (the
  // inner box is as large as the rule allows).
  Rng rng(4242);
  for (int it = 0; it < 40; ++it) {
    Int3 grid{1, 1, 1};
    const int axes = static_cast<int>(rng.uniform_int(1, 3));
    for (int a = 0; a < axes; ++a) {
      grid[static_cast<int>(rng.uniform_int(0, 2))] =
          static_cast<int>(rng.uniform_int(2, 3));
    }
    Int3 dim;
    for (int a = 0; a < 3; ++a) {
      dim[a] = grid[a] * static_cast<int>(rng.uniform_int(1, 6)) +
               static_cast<int>(rng.uniform_int(0, 2));
    }
    const core::Decomposition3 decomp(dim, netsim::NodeGrid{grid});
    for (int node = 0; node < decomp.num_nodes(); ++node) {
      const core::LocalDomain ld = core::LocalDomain::make(decomp, node);
      const Int3 d = ld.local_dim();
      auto near_ghost = [&](Int3 p) {
        for (int a = 0; a < 3; ++a) {
          if (ld.ghost_lo[a] > 0 && p[a] <= ld.ghost_lo[a]) return true;
          if (ld.ghost_hi[a] > 0 && p[a] >= d[a] - ld.ghost_hi[a] - 1) {
            return true;
          }
        }
        return false;
      };
      const std::string where = "dim " + std::to_string(dim.x) + "x" +
                                std::to_string(dim.y) + "x" +
                                std::to_string(dim.z) + " grid " +
                                std::to_string(grid.x) + "x" +
                                std::to_string(grid.y) + "x" +
                                std::to_string(grid.z) + " node " +
                                std::to_string(node);
      std::vector<int> cover(static_cast<std::size_t>(d.volume()), 0);
      auto mark = [&](const CellBox& box, bool inner) {
        for (int a = 0; a < 3; ++a) {
          ASSERT_GE(box.lo[a], 0) << where;
          ASSERT_LE(box.hi[a], d[a]) << where;
        }
        box.for_each(d, [&](Int3 p) {
          const i64 c = p.x + i64(d.x) * (p.y + i64(d.y) * p.z);
          ++cover[static_cast<std::size_t>(c)];
          EXPECT_EQ(near_ghost(p), !inner) << where << " cell " << p;
        });
      };
      mark(ld.inner_box(), true);
      const std::vector<CellBox> shell = ld.shell_boxes();
      EXPECT_LE(shell.size(), 6u) << where;
      for (const CellBox& box : shell) {
        EXPECT_FALSE(box.empty()) << where;
        mark(box, false);
      }
      for (const int n : cover) ASSERT_EQ(n, 1) << where;
    }
  }
}

}  // namespace
}  // namespace gc::lbm
