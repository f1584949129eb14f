#include "lbm/stream.hpp"

#include "lbm/cell_pass.hpp"
#include "obs/trace.hpp"

namespace gc::lbm {
namespace detail {

Real pull_value(const Lattice& lat, Int3 p, int i) {
  return pull(LatticeSource{lat}, p, i);
}

void pull_cell(const Lattice& lat, i64 cell, Real f[Q]) {
  const Int3 p = lat.coords(cell);
  for (int i = 0; i < Q; ++i) f[i] = pull_value(lat, p, i);
}

/// The uniform-inlet equilibrium is computed once outside the loop, and
/// a profiled inlet recomputes per cell into its own scratch so the two
/// cases never share (and clobber) one feq buffer.
void impose_inlets(Lattice& lat) {
  const CellClass& cc = lat.cell_class();
  if (cc.inlet.empty()) return;
  if (lat.has_inlet_profile()) {
    Real feq[Q];
    for (const i64 c : cc.inlet) {
      equilibrium_all(lat.inlet_density(),
                      lat.inlet_velocity_at(lat.coords(c)), feq);
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  } else {
    Real feq[Q];
    equilibrium_all(lat.inlet_density(), lat.inlet_velocity(), feq);
    for (const i64 c : cc.inlet) {
      for (int i = 0; i < Q; ++i) lat.set_f(i, c, feq[i]);
    }
  }
}

}  // namespace detail

void stream_region(Lattice& lat, const CellBox& box, const StepContext& ctx) {
  detail::stream_pass(lat, box, ctx);
}

void finish_stream(Lattice& lat, const StepContext& ctx) {
  detail::finish_pass(lat, ctx);
}

void stream(Lattice& lat, const StepContext& ctx) {
  {
    obs::ScopedSpan span(ctx.trace, "stream", ctx.rank, "lbm");
    stream_region(lat, CellBox{}, ctx);
  }
  obs::ScopedSpan span(ctx.trace, "finish", ctx.rank, "lbm");
  finish_stream(lat, ctx);
}

}  // namespace gc::lbm
