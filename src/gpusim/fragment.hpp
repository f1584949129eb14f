// The programmable fragment stage (Section 2): user-defined fragment
// programs run once per fragment of a render pass, may gather from any
// texel of any bound texture, and write one RGBA result. This is the
// only programmable stage the paper uses ("currently, most of the
// techniques ... take advantage of the programmable fragment processing
// stage"); scatter is impossible by construction — a program only returns
// the value of its own fragment.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "gpusim/texture.hpp"
#include "util/common.hpp"

namespace gc::gpusim {

/// Uniform parameters bound for a pass (Cg-style named float4 constants).
class Uniforms {
 public:
  void set(const std::string& name, float x, float y = 0, float z = 0,
           float w = 0) {
    values_[name] = {x, y, z, w};
  }
  const std::array<float, 4>& get(const std::string& name) const;
  bool has(const std::string& name) const { return values_.count(name) != 0; }

 private:
  std::map<std::string, std::array<float, 4>> values_;
};

/// Per-fragment execution context handed to FragmentProgram::shade.
/// Counts texture fetches for the performance model.
class FragmentContext {
 public:
  FragmentContext(int x, int y, const std::vector<const Texture2D*>& bound,
                  const Uniforms& uniforms)
      : x_(x), y_(y), bound_(bound), uniforms_(uniforms) {}

  /// Fragment coordinates in the render target.
  int x() const { return x_; }
  int y() const { return y_; }

  /// Gather: fetch any texel of any bound texture unit.
  RGBA fetch(int unit, int x, int y) {
    GC_CHECK(unit >= 0 && unit < static_cast<int>(bound_.size()));
    ++fetches_;
    return bound_[static_cast<std::size_t>(unit)]->fetch(x, y);
  }

  const std::array<float, 4>& uniform(const std::string& name) const {
    return uniforms_.get(name);
  }

  i64 fetch_count() const { return fetches_; }

 private:
  int x_, y_;
  const std::vector<const Texture2D*>& bound_;
  const Uniforms& uniforms_;
  i64 fetches_ = 0;
};

/// A user fragment program (the Cg shader analog).
class FragmentProgram {
 public:
  virtual ~FragmentProgram() = default;

  /// Computes the RGBA output for the fragment described by ctx.
  virtual RGBA shade(FragmentContext& ctx) const = 0;

  /// Descriptive name (for pass traces and error messages).
  virtual std::string name() const = 0;

  /// Estimated vector arithmetic instructions per fragment, fed to the
  /// performance model alongside the exact fetch counts.
  virtual int arithmetic_instructions() const { return 8; }
};

}  // namespace gc::gpusim
