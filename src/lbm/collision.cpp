#include "lbm/collision.hpp"

#include "lbm/cell_pass.hpp"
#include "lbm/stream.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

namespace {

/// The BGK relaxation of L cells whose moments are known; kForced adds
/// the Guo source term.
template <int L, bool kForced>
void bgk_relax(Real* f, const Real rho[L], const Real ux[L], const Real uy[L],
               const Real uz[L], const Real uu15[L], Real omega, Vec3 force) {
  const Real fpref = kForced ? (Real(1) - Real(0.5) * omega) : Real(0);
#pragma GCC unroll 19
  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    Real* fi = f + i * L;
    for (int l = 0; l < L; ++l) {  // vec: relax
      const Real cu = cx * ux[l] + cy * uy[l] + cz * uz[l];
      const Real feq = W[i] * rho[l] *
                       (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - uu15[l]);
      Real v = fi[l] - omega * (fi[l] - feq);
      if constexpr (kForced) {
        // Guo: F_i = (1 - 1/(2tau)) w_i [3(c - u) + 9(c.u)c] . F
        const Real tx = (cx - ux[l]) * Real(3) + cx * (Real(9) * cu);
        const Real ty = (cy - uy[l]) * Real(3) + cy * (Real(9) * cu);
        const Real tz = (cz - uz[l]) * Real(3) + cz * (Real(9) * cu);
        v += fpref * W[i] * (tx * force.x + ty * force.y + tz * force.z);
      }
      fi[l] = v;
    }
  }
}

/// BGK with Guo forcing on L cells at once, f[i * L + l] holding f_i of
/// lane l (the cell operator layout of cell_pass.hpp). Every lane runs
/// the same operations in the same order as one cell does, so the result
/// does not depend on L; the lane loops have a fixed trip count, so the
/// compiler vectorizes them when L > 1.
template <int L>
void bgk_lanes(Real* f, Real tau, Vec3 force) {
  Real rho[L], ux[L], uy[L], uz[L], uu15[L];
  for (int l = 0; l < L; ++l) rho[l] = ux[l] = uy[l] = uz[l] = 0;
#pragma GCC unroll 19
  for (int i = 0; i < Q; ++i) {
    const Real cx = Real(C[i].x), cy = Real(C[i].y), cz = Real(C[i].z);
    const Real* fi = f + i * L;
    for (int l = 0; l < L; ++l) {  // vec: moments
      rho[l] += fi[l];
      ux[l] += fi[l] * cx;
      uy[l] += fi[l] * cy;
      uz[l] += fi[l] * cz;
    }
  }
  const Vec3 half_force = force * Real(0.5);
  for (int l = 0; l < L; ++l) {
    const Real inv_rho = Real(1) / rho[l];
    // Guo forcing: velocity shifted by half the force impulse.
    ux[l] = (ux[l] + half_force.x) * inv_rho;
    uy[l] = (uy[l] + half_force.y) * inv_rho;
    uz[l] = (uz[l] + half_force.z) * inv_rho;
    uu15[l] = Real(1.5) * (ux[l] * ux[l] + uy[l] * uy[l] + uz[l] * uz[l]);
  }
  const Real omega = Real(1) / tau;
  if (force.x != 0 || force.y != 0 || force.z != 0) {
    bgk_relax<L, true>(f, rho, ux, uy, uz, uu15, omega, force);
  } else {
    bgk_relax<L, false>(f, rho, ux, uy, uz, uu15, omega, force);
  }
}

}  // namespace

void collide_bgk_cell(Real f[Q], Real tau, Vec3 force) {
  bgk_lanes<1>(f, tau, force);
}

namespace {

/// BGK with the uniform Guo force p.force, as a cell operator of any lane
/// count.
auto bgk_op(const BgkParams& p) {
  return [&p]<int L>(Real* f, detail::Lanes<L>) {
    bgk_lanes<L>(f, p.tau, p.force);
  };
}

/// The fused value of one slow cell: its pulled values, collided when
/// the cell is fluid, the inlet equilibrium when it is an inlet, and
/// passed through otherwise (outflow).
void fused_slow_cell(const Lattice& lat, i64 cell, const BgkParams& p,
                     Real f[Q]) {
  detail::pull_cell(lat, cell, f);
  const CellType t = lat.flag(cell);
  if (t == CellType::Fluid) {
    collide_bgk_cell(f, p.tau, p.force);
  } else if (t == CellType::Inlet) {
    equilibrium_all(lat.inlet_density(),
                    lat.inlet_velocity_at(lat.coords(cell)), f);
  }
}

/// Fused pull+collide over slices [z0, z1) into the back buffer: bulk
/// spans read the 19 distributions straight off shifted plane pointers
/// (the pull is just an offset for classified bulk cells) and run the
/// pass's tile loop, with no flag work at all. The slow minority takes
/// fused_slow_cell; solids are zeroed.
template <bool kCompact>
void fused_z_range(const Lattice& lat, const CellClass& cc,
                   const detail::PlaneAddr<kCompact>& a, const BgkParams& p,
                   int z0, int z1) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = detail::pull_offset(lat.dim(), i);
  for (const i64 c : detail::z_slice(cc.solid, cc.solid_z, z0, z1)) {
    a.zero_solid(c);
  }

  for (const CellSpan& sp : detail::z_slice(cc.spans, cc.span_z, z0, z1)) {
    const i64 out0 = a.at(sp.begin);
    const Real* in[Q];
    Real* out[Q];
    for (int i = 0; i < Q; ++i) {
      in[i] = a.rd[i] + a.at(sp.begin + shift[i]);
      out[i] = a.wr[i] + out0;
    }
    detail::run_span(in, out, sp.len, bgk_op(p));
  }

  Real f[Q];
  for (const i64 cell : detail::z_slice(cc.slow, cc.slow_z, z0, z1)) {
    fused_slow_cell(lat, cell, p, f);
    a.store(cell, f);
  }
}

template <bool kCompact>
void fused_pass(Lattice& lat, const CellClass& cc,
                const detail::PlaneAddr<kCompact>& a, const BgkParams& p,
                const StepContext& ctx) {
  detail::for_z_chunks(lat, ctx, CellBox{}, [&](int z0, int z1) {
    fused_z_range(lat, cc, a, p, z0, z1);
  });
  lat.swap_buffers();
}

/// AA fused step. The slow cells' fused values are computed BEFORE the
/// parity flip into scratch; the flip then streams the bulk for free;
/// the bulk is collided in place by the collide pass's span loop, and
/// the slow/solid results are scattered through the post-collide
/// mapping. Every phase runs in chunks on ctx.pool: each cell writes its
/// own slot group, so chunks never overlap. The lattice ends the step
/// collided: the next fused call flips first.
void aa_fused(Lattice& lat, const CellClass& cc, const BgkParams& p,
              const StepContext& ctx) {
  if (!lat.aa_collided()) lat.aa_adopt_collided_layout();
  const i64 nslow = static_cast<i64>(cc.slow.size());
  auto& fix = lat.aa_fix_scratch();
  fix.resize(static_cast<std::size_t>(nslow * Q));
  const i64 min_chunk = ThreadPool::min_chunk_indices(256);
  detail::for_chunks(ctx.pool, 0, nslow, min_chunk, [&](i64 k0, i64 k1) {
    for (i64 k = k0; k < k1; ++k) {
      fused_slow_cell(lat, cc.slow[static_cast<std::size_t>(k)], p,
                      fix.data() + k * Q);
    }
  });

  lat.swap_buffers();  // flip parity: the zero-copy bulk stream

  const detail::AaAddr bulk(lat);
  detail::for_z_chunks(lat, ctx, CellBox{}, [&](int z0, int z1) {
    detail::collide_spans(lat, cc, bulk, bgk_op(p), CellBox{}, z0, z1);
  });

  detail::for_chunks(ctx.pool, 0, nslow, min_chunk, [&](i64 k0, i64 k1) {
    for (i64 k = k0; k < k1; ++k) {
      lat.scatter_cell_collided(cc.slow[static_cast<std::size_t>(k)],
                                fix.data() + k * Q);
    }
  });
  const Real zeros[Q] = {};
  detail::for_chunks(ctx.pool, 0, static_cast<i64>(cc.solid.size()),
                     min_chunk, [&](i64 k0, i64 k1) {
                       for (i64 k = k0; k < k1; ++k) {
                         lat.scatter_cell_collided(
                             cc.solid[static_cast<std::size_t>(k)], zeros);
                       }
                     });
  lat.aa_mark_collided();
}

}  // namespace

void collide_bgk(Lattice& lat, const BgkParams& p, const StepContext& ctx,
                 const CellBox& box) {
  detail::collide_pass(lat, bgk_op(p), ctx, box);
}

void fused_stream_collide(Lattice& lat, const BgkParams& p,
                          const StepContext& ctx) {
  // The fused pass cannot interpose the Bouzidi correction between
  // streaming and collision; use the separate passes for curved boundaries.
  GC_CHECK_MSG(lat.curved_links().empty(),
               "fused_stream_collide does not support curved links");
  obs::ScopedSpan span(ctx.trace, "fused", ctx.rank, "lbm");
  const CellClass& cc = lat.cell_class();  // build before dispatch
  switch (lat.storage_mode()) {
    case StorageMode::DoubleBuffer:
      fused_pass(lat, cc, detail::NaturalAddr::to_back(lat), p, ctx);
      return;
    case StorageMode::Sparse:
      fused_pass(lat, cc, detail::CompactAddr::to_back(lat), p, ctx);
      return;
    case StorageMode::AA:
      aa_fused(lat, cc, p, ctx);
      return;
  }
}

}  // namespace gc::lbm
