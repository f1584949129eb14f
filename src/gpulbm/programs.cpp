#include "gpulbm/programs.hpp"

#include "lbm/collision.hpp"
#include "lbm/stream.hpp"

namespace gc::gpulbm {

using gpusim::FragmentContext;
using gpusim::RGBA;
using lbm::C;
using lbm::CellType;
using lbm::FaceBc;
using lbm::Q;

// ---------------------------------------------------------------- collision

RGBA CollisionProgram::shade(FragmentContext& ctx) const {
  const int x = ctx.x();
  const int y = ctx.y();
  const int flag = static_cast<int>(ctx.fetch(collide_flag_unit(), x, y).r);
  if (flag != static_cast<int>(CellType::Fluid)) {
    // Solids stay zero; inlet cells keep their imposed equilibrium.
    return ctx.fetch(out_stack_, x, y);
  }

  Real f[Q];
  for (int s = 0; s < NUM_STACKS; ++s) {
    const RGBA v = ctx.fetch(s, x, y);
    for (int ch = 0; ch < 4; ++ch) {
      const int dir = dir_at(s, ch);
      if (dir >= 0) f[dir] = v[ch];
    }
  }
  lbm::collide_bgk_cell(f, p_.tau, Vec3{});

  RGBA out;
  for (int ch = 0; ch < 4; ++ch) {
    const int dir = dir_at(out_stack_, ch);
    out[ch] = dir >= 0 ? f[dir] : 0.0f;
  }
  return out;
}

// ---------------------------------------------------------------- streaming

namespace {

/// The pull rule's source adapter on the stream pass's bound textures:
/// the hop's z picks the slice bound at the -1/0/+1 units (the solver
/// binds wrapped slices there), x and y address the texel.
struct TextureSource {
  const LbmShaderParams& p;
  FragmentContext& ctx;
  Int3 dim() const { return p.dim; }
  FaceBc face_bc(int face) const {
    return p.face_bc[static_cast<std::size_t>(face)];
  }
  CellType flag(Int3 src, Int3 hop) const {
    return static_cast<CellType>(
        static_cast<int>(ctx.fetch(stream_flag_unit(hop.z), src.x, src.y).r));
  }
  Real f(int i, Int3 src, Int3 hop) const {
    return ctx.fetch(stream_f_unit(stack_of(i), hop.z), src.x,
                     src.y)[channel_of(i)];
  }
  Real inlet_eq(int i, Int3) const {
    return lbm::equilibrium(i, p.inlet_density, p.inlet_velocity);
  }
};

}  // namespace

RGBA StreamProgram::shade(FragmentContext& ctx) const {
  const TextureSource src{p_, ctx};
  const Int3 pcell{ctx.x(), ctx.y(), z_};
  const CellType own = src.flag(pcell, Int3{0, 0, 0});

  RGBA out;
  if (own == CellType::Solid) {
    return out;  // zeros
  }
  for (int ch = 0; ch < 4; ++ch) {
    const int dir = dir_at(out_stack_, ch);
    if (dir < 0) continue;
    out[ch] = own == CellType::Inlet ? src.inlet_eq(dir, pcell)
                                     : lbm::detail::pull(src, pcell, dir);
  }
  return out;
}

// ------------------------------------------------------------------ moments

RGBA MomentsProgram::shade(FragmentContext& ctx) const {
  const int x = ctx.x();
  const int y = ctx.y();
  Real rho = 0;
  Vec3 mom{};
  for (int s = 0; s < NUM_STACKS; ++s) {
    const RGBA v = ctx.fetch(s, x, y);
    for (int ch = 0; ch < 4; ++ch) {
      const int dir = dir_at(s, ch);
      if (dir < 0) continue;
      rho += v[ch];
      mom.x += v[ch] * Real(C[dir].x);
      mom.y += v[ch] * Real(C[dir].y);
      mom.z += v[ch] * Real(C[dir].z);
    }
  }
  RGBA out;
  out.r = rho;
  if (rho > Real(0)) {
    out.g = mom.x / rho;
    out.b = mom.y / rho;
    out.a = mom.z / rho;
  }
  return out;
}

// ------------------------------------------------------------- border gather

std::array<int, 5> outgoing_directions(lbm::Face face) {
  const int axis = face / 2;
  const int sign = (face % 2 == 0) ? -1 : +1;
  std::array<int, 5> dirs{};
  int k = 0;
  for (int i = 1; i < Q; ++i) {
    if (C[i][axis] == sign) dirs[static_cast<std::size_t>(k++)] = i;
  }
  GC_CHECK(k == 5);
  return dirs;
}

BorderGatherProgram::BorderGatherProgram(const LbmShaderParams& params,
                                         lbm::Face face, int group, int coord,
                                         int t0)
    : p_(params), face_(face), group_(group), coord_(coord), t0_(t0) {
  GC_CHECK(group == 0 || group == 1);
}

RGBA BorderGatherProgram::shade(FragmentContext& ctx) const {
  // Map the border texel back to in-slice cell coordinates.
  int cx = 0, cy = 0;
  switch (face_) {
    case lbm::FACE_XMIN:
    case lbm::FACE_XMAX: cx = coord_;         cy = t0_ + ctx.x(); break;
    case lbm::FACE_YMIN:
    case lbm::FACE_YMAX: cx = t0_ + ctx.x();  cy = coord_; break;
    case lbm::FACE_ZMIN:
    case lbm::FACE_ZMAX: cx = ctx.x();        cy = ctx.y(); break;
  }
  const std::array<int, 5> dirs = outgoing_directions(face_);

  RGBA out;
  if (group_ == 0) {
    for (int k = 0; k < 4; ++k) {
      const int i = dirs[static_cast<std::size_t>(k)];
      out[k] = ctx.fetch(stack_of(i), cx, cy)[channel_of(i)];
    }
  } else {
    const int i = dirs[4];
    out.r = ctx.fetch(stack_of(i), cx, cy)[channel_of(i)];
  }
  return out;
}

}  // namespace gc::gpulbm
