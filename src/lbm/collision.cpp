#include "lbm/collision.hpp"

#include "lbm/cell_pass.hpp"
#include "lbm/stream.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {

void collide_bgk_cell(Real f[Q], Real tau, Vec3 force) {
  Real rho = 0;
  Vec3 mom{};
  for (int i = 0; i < Q; ++i) {
    rho += f[i];
    mom.x += f[i] * Real(C[i].x);
    mom.y += f[i] * Real(C[i].y);
    mom.z += f[i] * Real(C[i].z);
  }
  const Real inv_rho = Real(1) / rho;
  // Guo forcing: velocity shifted by half the force impulse.
  Vec3 u = (mom + force * Real(0.5)) * inv_rho;

  const Real omega = Real(1) / tau;
  const Real uu15 = Real(1.5) * dot(u, u);
  const bool forced = force.x != 0 || force.y != 0 || force.z != 0;
  const Real fpref = forced ? (Real(1) - Real(0.5) * omega) : Real(0);

  for (int i = 0; i < Q; ++i) {
    const Vec3 c{Real(C[i].x), Real(C[i].y), Real(C[i].z)};
    const Real cu = dot(c, u);
    const Real feq =
        W[i] * rho * (Real(1) + Real(3) * cu + Real(4.5) * cu * cu - uu15);
    Real fi = f[i] - omega * (f[i] - feq);
    if (forced) {
      // Guo: F_i = (1 - 1/(2tau)) w_i [3(c - u) + 9(c.u)c] . F
      const Vec3 term = (c - u) * Real(3) + c * (Real(9) * cu);
      fi += fpref * W[i] * dot(term, force);
    }
    f[i] = fi;
  }
}

namespace {

/// BGK with the uniform Guo force p.force, as a cell operator.
auto bgk_op(const BgkParams& p) {
  return [&p](Real f[Q], i64) { collide_bgk_cell(f, p.tau, p.force); };
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
/// spans read the 19 distributions straight off restrict-qualified
/// shifted plane pointers (the pull is just an offset for classified
/// bulk cells), collide, and write, with no flag work at all. The slow
/// minority takes fused_slow_cell; solids are zeroed.
template <bool kCompact>
void fused_z_range(const Lattice& lat, const CellClass& cc,
                   const detail::PlaneAddr<kCompact>& a, const BgkParams& p,
                   int z0, int z1) {
  i64 shift[Q];
  for (int i = 0; i < Q; ++i) shift[i] = detail::pull_offset(lat.dim(), i);
  a.zero_solids(detail::z_slice(cc.solid, cc.solid_z, z0, z1));

  Real f[Q];
  for (const CellSpan& sp : detail::z_slice(cc.spans, cc.span_z, z0, z1)) {
    const i64 out0 = a.at(sp.begin);
    const Real* GC_RESTRICT in[Q];
    Real* GC_RESTRICT out[Q];
    for (int i = 0; i < Q; ++i) {
      in[i] = a.rd[i] + a.at(sp.begin + shift[i]);
      out[i] = a.wr[i] + out0;
    }
    for (i32 k = 0; k < sp.len; ++k) {
      for (int i = 0; i < Q; ++i) f[i] = in[i][k];
      collide_bgk_cell(f, p.tau, p.force);
      for (int i = 0; i < Q; ++i) out[i][k] = f[i];
    }
  }

  for (const i64 cell : detail::z_slice(cc.slow, cc.slow_z, z0, z1)) {
    fused_slow_cell(lat, cell, p, f);
    a.store(cell, f);
  }
}

template <bool kCompact>
void fused_pass(Lattice& lat, const CellClass& cc,
                const detail::PlaneAddr<kCompact>& a, const BgkParams& p,
                const StepContext& ctx) {
  detail::for_z_chunks(lat, ctx, 0, lat.dim().z, [&](int z0, int z1) {
    fused_z_range(lat, cc, a, p, z0, z1);
  });
  lat.swap_buffers();
}

/// AA fused step. The slow cells' fused values are computed BEFORE the
/// parity flip into scratch; the flip then streams the bulk for free;
/// the bulk is collided in place by the collide pass's span loop, and
/// the slow/solid results are scattered through the post-collide
/// mapping. The lattice ends the step collided: the next fused call
/// flips first.
void aa_fused(Lattice& lat, const CellClass& cc, const BgkParams& p,
              const StepContext& ctx) {
  if (!lat.aa_collided()) lat.aa_adopt_collided_layout();
  const i64 nslow = static_cast<i64>(cc.slow.size());
  auto& fix = lat.aa_fix_scratch();
  fix.resize(static_cast<std::size_t>(nslow * Q));
  detail::for_chunks(ctx.pool, 0, nslow, ThreadPool::min_chunk_indices(256),
                     [&](i64 k0, i64 k1) {
                       for (i64 k = k0; k < k1; ++k) {
                         fused_slow_cell(lat,
                                         cc.slow[static_cast<std::size_t>(k)],
                                         p, fix.data() + k * Q);
                       }
                     });

  lat.swap_buffers();  // flip parity: the zero-copy bulk stream

  const detail::AaAddr bulk(lat);
  detail::for_z_chunks(lat, ctx, 0, lat.dim().z, [&](int z0, int z1) {
    detail::collide_spans(lat, cc, bulk, bgk_op(p), CellBox{}, z0, z1);
  });

  for (i64 k = 0; k < nslow; ++k) {
    lat.scatter_cell_collided(cc.slow[static_cast<std::size_t>(k)],
                              fix.data() + k * Q);
  }
  const Real zeros[Q] = {};
  for (const i64 c : cc.solid) lat.scatter_cell_collided(c, zeros);
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
