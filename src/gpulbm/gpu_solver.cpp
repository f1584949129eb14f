#include "gpulbm/gpu_solver.hpp"

#include <algorithm>

namespace gc::gpulbm {

using gpusim::Rect;
using gpusim::TextureId;
using gpusim::Uniforms;
using lbm::Face;
using lbm::FaceBc;

GpuLbmSolver::GpuLbmSolver(gpusim::GpuDevice& dev, const lbm::Lattice& init,
                           Real tau)
    : dev_(dev) {
  params_.dim = init.dim();
  params_.tau = tau;
  for (int f = 0; f < 6; ++f) {
    params_.face_bc[static_cast<std::size_t>(f)] =
        init.face_bc(static_cast<Face>(f));
  }
  params_.inlet_density = init.inlet_density();
  params_.inlet_velocity = init.inlet_velocity();
  GC_CHECK_MSG(init.curved_links().empty(),
               "the GPU path supports flag-based boundaries only");
  GC_CHECK_MSG(!init.has_inlet_profile(),
               "the GPU path requires a uniform inlet velocity");

  const Int3 d = params_.dim;
  for (int b = 0; b < 2; ++b) {
    for (int s = 0; s < NUM_STACKS; ++s) {
      f_[b][s].reserve(static_cast<std::size_t>(d.z));
      for (int z = 0; z < d.z; ++z) {
        f_[b][s].push_back(dev_.create_texture(d.x, d.y));
      }
    }
  }
  flags_.reserve(static_cast<std::size_t>(d.z));
  for (int z = 0; z < d.z; ++z) {
    flags_.push_back(dev_.create_texture(d.x, d.y));
    dev_.upload(flags_.back(), pack_flags_slice(init, z));
  }
  upload_from(init);
}

GpuLbmSolver::~GpuLbmSolver() {
  for (int b = 0; b < 2; ++b) {
    for (int s = 0; s < NUM_STACKS; ++s) {
      for (TextureId id : f_[b][s]) dev_.destroy_texture(id);
    }
  }
  for (TextureId id : flags_) dev_.destroy_texture(id);
  for (TextureId id : moments_) dev_.destroy_texture(id);
  for (TextureId id : border_tex_) {
    if (id >= 0) dev_.destroy_texture(id);
  }
}

void GpuLbmSolver::upload_from(const lbm::Lattice& src) {
  GC_CHECK(src.dim() == params_.dim);
  for (int s = 0; s < NUM_STACKS; ++s) {
    for (int z = 0; z < params_.dim.z; ++z) {
      dev_.upload(f_[cur_][s][static_cast<std::size_t>(z)],
                  pack_slice(src, s, z));
    }
  }
}

int GpuLbmSolver::wrap_slice(int z) const {
  const Int3 d = params_.dim;
  if (z < 0) {
    return params_.face_bc[lbm::FACE_ZMIN] == FaceBc::Periodic ? z + d.z : 0;
  }
  if (z >= d.z) {
    return params_.face_bc[lbm::FACE_ZMAX] == FaceBc::Periodic ? z - d.z
                                                               : d.z - 1;
  }
  return z;
}

std::vector<TextureId> GpuLbmSolver::bound_for_stream(int z) const {
  // Unit layout: stream_f_unit(s, dz) = s*3 + dz+1; flags at 15..17.
  std::vector<TextureId> bound;
  bound.reserve(NUM_STACKS * 3 + 3);
  const int other = 1 - cur_;
  for (int s = 0; s < NUM_STACKS; ++s) {
    for (int dz = -1; dz <= 1; ++dz) {
      bound.push_back(f_[other][s][static_cast<std::size_t>(wrap_slice(z + dz))]);
    }
  }
  for (int dz = -1; dz <= 1; ++dz) {
    bound.push_back(flags_[static_cast<std::size_t>(wrap_slice(z + dz))]);
  }
  return bound;
}

void GpuLbmSolver::collide_pass() {
  const Int3 d = params_.dim;
  const Uniforms no_uniforms;
  const int other = 1 - cur_;
  const Rect full{0, 0, d.x, d.y};

  // Collision: read cur_, write other.
  for (int z = 0; z < d.z; ++z) {
    std::vector<TextureId> bound;
    bound.reserve(NUM_STACKS + 1);
    for (int s = 0; s < NUM_STACKS; ++s) {
      bound.push_back(f_[cur_][s][static_cast<std::size_t>(z)]);
    }
    bound.push_back(flags_[static_cast<std::size_t>(z)]);
    for (int s = 0; s < NUM_STACKS; ++s) {
      CollisionProgram prog(params_, s);
      dev_.render(prog, f_[other][s][static_cast<std::size_t>(z)], full, bound,
                  no_uniforms);
    }
  }
}

void GpuLbmSolver::stream_rects(const std::vector<Rect>& rects) {
  const Int3 d = params_.dim;
  const Uniforms no_uniforms;

  // Streaming: read other (post-collision), write back into cur_.
  for (int z = 0; z < d.z; ++z) {
    const std::vector<TextureId> bound = bound_for_stream(z);
    for (int s = 0; s < NUM_STACKS; ++s) {
      StreamProgram prog(params_, s, z);
      for (const Rect& r : rects) {
        dev_.render(prog, f_[cur_][s][static_cast<std::size_t>(z)], r, bound,
                    no_uniforms);
      }
    }
  }
}

void GpuLbmSolver::stream_pass() {
  const Int3 d = params_.dim;
  stream_rects({Rect{0, 0, d.x, d.y}});
}

void GpuLbmSolver::step() {
  collide_pass();
  stream_pass();
}

std::vector<Real> GpuLbmSolver::read_border(int buf, Face face, int coord,
                                            int t0, int bw, int bh, int z0) {
  if (border_tex_[0] < 0 || border_tex_dim_.x != bw ||
      border_tex_dim_.y != bh) {
    for (TextureId id : border_tex_) {
      if (id >= 0) dev_.destroy_texture(id);
    }
    border_tex_[0] = dev_.create_texture(bw, bh);
    border_tex_[1] = dev_.create_texture(bw, bh);
    border_tex_dim_ = Int3{bw, bh, 1};
  }

  // A Z face's border is one slice: one pass per texture. An X/Y face's
  // texture row r is gathered from slice z0 + r.
  const bool z_face = face / 2 == 2;
  const Uniforms no_uniforms;
  for (int r = 0; r < (z_face ? 1 : bh); ++r) {
    std::vector<TextureId> bound;
    for (int s = 0; s < NUM_STACKS; ++s) {
      bound.push_back(f_[buf][s][static_cast<std::size_t>(z0 + r)]);
    }
    const Rect rect = z_face ? Rect{0, 0, bw, bh} : Rect{0, r, bw, r + 1};
    for (int g = 0; g < 2; ++g) {
      BorderGatherProgram prog(params_, face, g, coord, t0);
      dev_.render(prog, border_tex_[static_cast<std::size_t>(g)], rect, bound,
                  no_uniforms);
    }
  }

  // The optimization's payoff: exactly two read operations.
  const std::vector<float> a = dev_.readback(border_tex_[0]);
  const std::vector<float> b = dev_.readback(border_tex_[1]);
  std::vector<Real> out;
  out.reserve(static_cast<std::size_t>(bw) * bh * 5);
  for (int row = 0; row < bh; ++row) {
    for (int t = 0; t < bw; ++t) {
      const std::size_t o = (static_cast<std::size_t>(row) * bw + t) * 4;
      for (int k = 0; k < 4; ++k) {
        out.push_back(a[o + static_cast<std::size_t>(k)]);
      }
      out.push_back(b[o]);
    }
  }
  return out;
}

std::vector<Real> GpuLbmSolver::read_border_plane(Face face, int coord,
                                                  int t0, int t1, int z0,
                                                  int z1) {
  GC_CHECK_MSG(face / 2 < 2, "read_border_plane supports X/Y faces only");
  GC_CHECK(t1 > t0 && z1 > z0);
  return read_border(1 - cur_, face, coord, t0, t1 - t0, z1 - z0, z0);
}

void GpuLbmSolver::write_ghost_plane(Face face, int coord, int t0, int t1,
                                     int z0, int z1,
                                     const std::vector<Real>& values) {
  const int axis = face / 2;
  GC_CHECK_MSG(axis < 2, "write_ghost_plane supports X/Y faces only");
  const int bw = t1 - t0;
  const int bh = z1 - z0;
  GC_CHECK(static_cast<i64>(values.size()) == i64(bw) * bh * 5);
  const int opposite = (face % 2 == 0) ? face + 1 : face - 1;
  const auto dirs = outgoing_directions(static_cast<Face>(opposite));
  const int other = 1 - cur_;

  std::size_t k = 0;
  for (int z = z0; z < z1; ++z) {
    for (int t = t0; t < t1; ++t) {
      const int cx = axis == 0 ? coord : t;
      const int cy = axis == 0 ? t : coord;
      for (int dk = 0; dk < 5; ++dk) {
        const int dir = dirs[static_cast<std::size_t>(dk)];
        gpusim::Texture2D& tex = dev_.texture(
            f_[other][stack_of(dir)][static_cast<std::size_t>(z)]);
        gpusim::RGBA v = tex.fetch(cx, cy);
        v[channel_of(dir)] = values[k++];
        tex.store(cx, cy, v);
      }
    }
  }
  // One write-back transfer for the whole plane payload.
  dev_.bus().download_seconds(static_cast<i64>(values.size()) *
                              static_cast<i64>(sizeof(float)));
}

void GpuLbmSolver::write_ghost_line_z(int x, int y, int dir, int z0, int z1,
                                      const std::vector<Real>& values) {
  GC_CHECK(static_cast<i64>(values.size()) == i64(z1) - z0);
  const int other = 1 - cur_;
  for (int z = z0; z < z1; ++z) {
    gpusim::Texture2D& tex =
        dev_.texture(f_[other][stack_of(dir)][static_cast<std::size_t>(z)]);
    gpusim::RGBA v = tex.fetch(x, y);
    v[channel_of(dir)] = values[static_cast<std::size_t>(z - z0)];
    tex.store(x, y, v);
  }
  dev_.bus().download_seconds(static_cast<i64>(values.size()) *
                              static_cast<i64>(sizeof(float)));
}

void GpuLbmSolver::copy_state_to_host(lbm::Lattice& out) const {
  GC_CHECK(out.dim() == params_.dim);
  const Int3 d = params_.dim;
  for (int s = 0; s < NUM_STACKS; ++s) {
    for (int z = 0; z < d.z; ++z) {
      const gpusim::Texture2D& t =
          dev_.texture(f_[cur_][s][static_cast<std::size_t>(z)]);
      std::vector<float> rgba(t.data(), t.data() + t.num_texels() * 4);
      unpack_slice(out, s, z, rgba);
    }
  }
}

std::vector<Real> GpuLbmSolver::read_border_gathered(Face face) {
  const Int3 d = params_.dim;
  const int axis = face / 2;
  const int edge = face % 2 == 0 ? 0 : d[axis] - 1;
  const int bw = axis == 0 ? d.y : d.x;
  const int bh = axis == 2 ? d.y : d.z;
  return read_border(cur_, face, edge, 0, bw, bh, axis == 2 ? edge : 0);
}

std::vector<Real> GpuLbmSolver::read_border_unbundled(Face face) {
  const Int3 d = params_.dim;
  const int axis = face / 2;
  const int bw = axis == 0 ? d.y : d.x;
  const int bh = axis == 2 ? d.y : d.z;
  const std::array<int, 5> dirs = outgoing_directions(face);

  std::vector<Real> out(static_cast<std::size_t>(bw) * bh * 5, Real(0));

  auto store = [&](int row, int t, int k, float v) {
    out[(static_cast<std::size_t>(row) * bw + t) * 5 +
        static_cast<std::size_t>(k)] = v;
  };

  if (axis == 2) {
    const int z = (face == lbm::FACE_ZMIN) ? 0 : d.z - 1;
    for (int k = 0; k < 5; ++k) {
      const int i = dirs[static_cast<std::size_t>(k)];
      const auto rgba = dev_.readback_rect(
          f_[cur_][stack_of(i)][static_cast<std::size_t>(z)],
          Rect{0, 0, d.x, d.y});
      for (int row = 0; row < bh; ++row) {
        for (int t = 0; t < bw; ++t) {
          store(row, t, k,
                rgba[(static_cast<std::size_t>(row) * d.x + t) * 4 +
                     static_cast<std::size_t>(channel_of(i))]);
        }
      }
    }
    return out;
  }

  // X/Y faces: one small rect read per direction per slice.
  for (int z = 0; z < d.z; ++z) {
    for (int k = 0; k < 5; ++k) {
      const int i = dirs[static_cast<std::size_t>(k)];
      Rect rect{};
      if (axis == 0) {
        const int x = (face == lbm::FACE_XMIN) ? 0 : d.x - 1;
        rect = Rect{x, 0, x + 1, d.y};
      } else {
        const int y = (face == lbm::FACE_YMIN) ? 0 : d.y - 1;
        rect = Rect{0, y, d.x, y + 1};
      }
      const auto rgba = dev_.readback_rect(
          f_[cur_][stack_of(i)][static_cast<std::size_t>(z)], rect);
      for (int t = 0; t < bw; ++t) {
        store(z, t, k,
              rgba[static_cast<std::size_t>(t) * 4 +
                   static_cast<std::size_t>(channel_of(i))]);
      }
    }
  }
  return out;
}

std::vector<float> GpuLbmSolver::read_moments() {
  const Int3 d = params_.dim;
  if (moments_.empty()) {
    for (int z = 0; z < d.z; ++z) {
      moments_.push_back(dev_.create_texture(d.x, d.y));
    }
  }
  const Uniforms no_uniforms;
  const Rect full{0, 0, d.x, d.y};
  for (int z = 0; z < d.z; ++z) {
    std::vector<TextureId> bound;
    for (int s = 0; s < NUM_STACKS; ++s) {
      bound.push_back(f_[cur_][s][static_cast<std::size_t>(z)]);
    }
    MomentsProgram prog(params_);
    dev_.render(prog, moments_[static_cast<std::size_t>(z)], full, bound,
                no_uniforms);
  }
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(d.volume()) * 4);
  for (int z = 0; z < d.z; ++z) {
    const auto slice = dev_.readback(moments_[static_cast<std::size_t>(z)]);
    out.insert(out.end(), slice.begin(), slice.end());
  }
  return out;
}

}  // namespace gc::gpulbm
