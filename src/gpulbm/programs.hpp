// The fragment programs of the GPU LBM (Section 4.2): collision,
// streaming (a pure gather), and the border-gather pass that packs all
// distributions leaving a sub-domain face into one small texture so a
// single read-back amortizes the AGP read setup (Section 4.3).
//
// Programs share the single-cell kernels of src/lbm (collide_bgk_cell,
// equilibrium, and the pull rule lbm::detail::pull with its boundary
// handling), so the GPU path is bit-identical to the host reference.
#pragma once

#include <array>

#include "gpulbm/packing.hpp"
#include "gpusim/fragment.hpp"
#include "lbm/lattice.hpp"

namespace gc::gpulbm {

/// Texture-unit conventions for the streaming pass: unit of f-stack s at
/// z offset dz in {-1,0,+1} is s*3 + (dz+1); flag slices live at units
/// 15+(dz+1). The collision pass binds stacks at offset 0 only: units
/// 0..4 plus flags at unit 5.
inline constexpr int stream_f_unit(int stack, int dz) {
  return stack * 3 + (dz + 1);
}
inline constexpr int stream_flag_unit(int dz) {
  return NUM_STACKS * 3 + (dz + 1);
}
inline constexpr int collide_flag_unit() { return NUM_STACKS; }

/// Static solver configuration the programs need (the Cg uniforms).
struct LbmShaderParams {
  Int3 dim;
  Real tau = Real(0.8);
  std::array<lbm::FaceBc, 6> face_bc{};
  Real inlet_density = Real(1);
  Vec3 inlet_velocity{};
};

/// Collision pass: reads all 19 distributions of the fragment's cell from
/// the 5 stacks, applies BGK, and outputs the 4 channels of `out_stack`.
/// (Each stack needs its own pass — a fragment can write only one RGBA.)
class CollisionProgram : public gpusim::FragmentProgram {
 public:
  CollisionProgram(const LbmShaderParams& params, int out_stack)
      : p_(params), out_stack_(out_stack) {}

  gpusim::RGBA shade(gpusim::FragmentContext& ctx) const override;
  std::string name() const override { return "lbm_collide"; }
  int arithmetic_instructions() const override { return 30; }

 private:
  LbmShaderParams p_;
  int out_stack_;
};

/// Streaming pass for slice z: gathers each direction of `out_stack` from
/// the neighbor texel in the appropriate stack/slice through the host's
/// pull rule (lbm::detail::pull, on texture fetches), so every boundary
/// is handled as the host handles it. Inlet cells take their
/// equilibrium, solid cells zeros.
class StreamProgram : public gpusim::FragmentProgram {
 public:
  StreamProgram(const LbmShaderParams& params, int out_stack, int z)
      : p_(params), out_stack_(out_stack), z_(z) {}

  gpusim::RGBA shade(gpusim::FragmentContext& ctx) const override;
  std::string name() const override { return "lbm_stream"; }
  int arithmetic_instructions() const override { return 12; }

 private:
  LbmShaderParams p_;
  int out_stack_;
  int z_;
};

/// Moments pass: density in r, velocity in gba (the paper packs flow
/// densities and velocities into one stack in the same fashion).
class MomentsProgram : public gpusim::FragmentProgram {
 public:
  explicit MomentsProgram(const LbmShaderParams& params) : p_(params) {}
  gpusim::RGBA shade(gpusim::FragmentContext& ctx) const override;
  std::string name() const override { return "lbm_moments"; }
  int arithmetic_instructions() const override { return 20; }

 private:
  LbmShaderParams p_;
};

/// The 5 directions whose distributions leave the sub-domain through a
/// face (C[i] has a positive component along the face's outward normal).
std::array<int, 5> outgoing_directions(lbm::Face face);

/// Border-gather pass: renders one row of the border texture for `face`
/// from the bound slice; texel t of that row collects the outgoing
/// distributions at boundary cell index t along the face. group 0 packs
/// the first four directions into RGBA, group 1 packs the fifth into R.
class BorderGatherProgram : public gpusim::FragmentProgram {
 public:
  /// Gathers the layer at in-slice coordinate `coord` (x for an X face,
  /// y for a Y face: the lattice's edge, or an own-border layer inset
  /// past a ghost layer), border texel t mapping to tangent coordinate
  /// t0 + t. A Z face's layer is the whole bound slice, texel (x, y).
  BorderGatherProgram(const LbmShaderParams& params, lbm::Face face,
                      int group, int coord, int t0);

  gpusim::RGBA shade(gpusim::FragmentContext& ctx) const override;
  std::string name() const override { return "lbm_border_gather"; }
  int arithmetic_instructions() const override { return 6; }

 private:
  LbmShaderParams p_;
  lbm::Face face_;
  int group_;
  int coord_;
  int t0_;
};

}  // namespace gc::gpulbm
