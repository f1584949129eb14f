// Sparse matrix-vector multiply on the simulated GPU using indirection
// textures (Section 2's "texture coordinates used to fetch texels from
// other textures" and Section 6's unstructured-grid recipe): the vector
// lives in a 2D texture; for each of the K = max-row-nnz slots an
// indirection texture stores the texel coordinates of the source vector
// entry and a value texture stores the matrix coefficient. One render
// pass evaluates y = A x with two dependent fetches per nonzero.
#pragma once

#include "gpusim/device.hpp"
#include "linalg/csr.hpp"

namespace gc::linalg {

class GpuSparseMatrix {
 public:
  /// Uploads the matrix in ELL layout (K indirection + K value textures).
  GpuSparseMatrix(gpusim::GpuDevice& dev, const CsrMatrix& a);
  ~GpuSparseMatrix();

  GpuSparseMatrix(const GpuSparseMatrix&) = delete;
  GpuSparseMatrix& operator=(const GpuSparseMatrix&) = delete;

  int rows() const { return rows_; }
  int ell_width() const { return k_; }

  /// y = A x: uploads x, runs the matvec pass, reads y back. Functionally
  /// exact against CsrMatrix::multiply up to float summation order.
  std::vector<Real> multiply(const std::vector<Real>& x);

 private:
  gpusim::GpuDevice& dev_;
  int rows_;
  int k_;
  int w_, h_;
  gpusim::TextureId x_tex_ = -1;
  gpusim::TextureId y_tex_ = -1;
  std::vector<gpusim::TextureId> ptr_tex_;  ///< K indirection textures
  std::vector<gpusim::TextureId> val_tex_;  ///< K coefficient textures
};

}  // namespace gc::linalg
