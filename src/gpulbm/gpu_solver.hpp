// Single-GPU LBM solver (Section 4.2) running on the simulated device:
// distributions live in 5 RGBA texture stacks (x2 for ping-pong), flags in
// one stack; collision and streaming execute as fragment-program render
// passes per slice per stack, streaming over the whole slice or over a
// list of rectangles (the overlapped cluster step's inner rectangle and
// shell strips). Functionally bit-identical to lbm::Solver (same
// single-cell kernels); the device ledger provides the simulated FX-5800
// timing that calibrates the cluster model.
#pragma once

#include <array>
#include <vector>

#include "gpulbm/programs.hpp"
#include "gpusim/device.hpp"
#include "lbm/lattice.hpp"

namespace gc::gpulbm {

class GpuLbmSolver {
 public:
  /// Uploads the lattice's current state, flags, and boundary setup to the
  /// device (charged as host->GPU traffic).
  GpuLbmSolver(gpusim::GpuDevice& dev, const lbm::Lattice& init, Real tau);
  ~GpuLbmSolver();

  GpuLbmSolver(const GpuLbmSolver&) = delete;
  GpuLbmSolver& operator=(const GpuLbmSolver&) = delete;

  Int3 dim() const { return params_.dim; }
  gpusim::GpuDevice& device() { return dev_; }

  /// One LBM step: 5 collision passes + 5 streaming passes per slice.
  void step();

  // --- split-phase stepping (the distributed driver's hooks) ---------
  /// Collision passes only: post-collision state lands in the back
  /// buffer, where read_border_plane / write_ghost_* operate.
  void collide_pass();
  /// Streaming passes only: pulls from the back (post-collision) buffer
  /// into the current one. step() == collide_pass(); stream_pass().
  void stream_pass();

  /// Streaming passes restricted to `rects`, rendered in order in every
  /// slice (none for an empty list). The overlapped step renders the
  /// inner rectangle while border messages are in flight and then the
  /// shell strips around it (the paper's "multiple small rectangles"
  /// boundary covering; core::LocalDomain defines both). Any set of
  /// calls whose rectangles cover every texel exactly once runs the same
  /// programs on every texel as stream_pass(): bit-identical to it.
  void stream_rects(const std::vector<gpusim::Rect>& rects);

  /// Gathers the 5 outgoing post-collision distributions of `face` on the
  /// in-slice plane coordinate `coord` (own border layer, possibly inset
  /// past a ghost layer), tangent range [t0,t1), slices [z0,z1), into two
  /// border textures and reads them back in two operations. X/Y faces
  /// only (the distributed driver decomposes in 2D, as in Table 1).
  /// Layout: [z - z0][t - t0][k], k indexing outgoing_directions(face).
  std::vector<Real> read_border_plane(lbm::Face face, int coord, int t0,
                                      int t1, int z0, int z1);

  /// Writes incoming distributions (outgoing_directions(opposite(face)))
  /// into the ghost plane at in-slice coordinate `coord` of the
  /// post-collision buffer; same layout as read_border_plane. Charged as
  /// a single host->GPU transfer of the payload.
  void write_ghost_plane(lbm::Face face, int coord, int t0, int t1, int z0,
                         int z1, const std::vector<Real>& values);

  /// Writes one distribution along a ghost corner line (x, y, z0..z1) of
  /// the post-collision buffer (the diagonal-neighbor chunk).
  void write_ghost_line_z(int x, int y, int dir, int z0, int z1,
                          const std::vector<Real>& values);

  /// Copies the device state back into a host lattice (debug/validation
  /// path; does not charge bus time — use read_border_* for timed I/O).
  void copy_state_to_host(lbm::Lattice& out) const;

  /// Re-uploads distributions from a host lattice (charged).
  void upload_from(const lbm::Lattice& src);

  /// Border values leaving `face`, ordered [row][texel][dir_k] with
  /// dir_k indexing outgoing_directions(face). Runs the on-GPU gather
  /// passes and exactly two read-backs (the Section 4.3 optimization).
  std::vector<Real> read_border_gathered(lbm::Face face);

  /// The naive alternative: one small read-back per direction per slice
  /// straight from the distribution textures. Same values, many more
  /// read initializations — the ablation of bench_ablation_gather.
  std::vector<Real> read_border_unbundled(lbm::Face face);

  /// Renders the moments pass (density + velocity per cell, one stack)
  /// and reads it back; returns (rho, ux, uy, uz) per cell, slice-major.
  std::vector<float> read_moments();

 private:
  /// The one border read-back: renders BorderGatherProgram (layer
  /// `coord`, first tangent t0) from buffer `buf` into the two bw x bh
  /// border textures, row r from slice z0 + r (a Z face: the whole
  /// texture from slice z0), reads both back and interleaves them as
  /// [row][texel][k].
  std::vector<Real> read_border(int buf, lbm::Face face, int coord, int t0,
                                int bw, int bh, int z0);
  int wrap_slice(int z) const;
  std::vector<gpusim::TextureId> bound_for_stream(int z) const;

  gpusim::GpuDevice& dev_;
  LbmShaderParams params_;
  // f_[b][s][z]: texture of stack s, slice z, buffer b. f_[cur_] is the
  // current state; collision writes the other buffer, streaming writes
  // back into cur_, so cur_ never flips.
  std::array<std::array<std::vector<gpusim::TextureId>, NUM_STACKS>, 2> f_;
  std::vector<gpusim::TextureId> flags_;
  std::vector<gpusim::TextureId> moments_;           // lazy
  std::array<gpusim::TextureId, 2> border_tex_{-1, -1};  // lazy, reused
  Int3 border_tex_dim_{0, 0, 0};
  int cur_ = 0;
};

}  // namespace gc::gpulbm
