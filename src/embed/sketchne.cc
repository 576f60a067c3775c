#include "embed/sketchne.h"

#include "la/svd.h"
#include "util/rng.h"

namespace sgla {
namespace embed {
namespace {

constexpr int kPower = 8;  // smoothing depth of the sketch subspace iteration
constexpr uint64_t kSketchSeed = 4242;

}  // namespace

Result<la::DenseMatrix> SketchNe(const la::CsrMatrix& laplacian,
                                 const SketchNeOptions& options) {
  const int64_t n = laplacian.rows;
  if (options.dim < 1) return InvalidArgument("SketchNe dim must be positive");
  if (n < options.dim + 2) {
    return InvalidArgument("SketchNe: graph smaller than embedding dim");
  }

  Rng rng(kSketchSeed);
  la::DenseMatrix sketch(n, options.dim);
  for (int64_t i = 0; i < n; ++i) {
    for (int j = 0; j < options.dim; ++j) sketch(i, j) = rng.Gaussian();
  }

  // Repeated application of (I - L) = normalized adjacency concentrates the
  // sketch on the smooth (low Laplacian frequency) subspace; periodic
  // re-orthonormalization keeps the block well conditioned.
  la::DenseMatrix next(n, options.dim);
  for (int it = 0; it < kPower; ++it) {
    la::SpmvDense(laplacian, sketch, &next);
    for (int64_t i = 0; i < n; ++i) {
      for (int j = 0; j < options.dim; ++j) {
        next(i, j) = sketch(i, j) - next(i, j);
      }
    }
    std::swap(sketch, next);
    if (it % 3 == 2 || it + 1 == kPower) {
      la::OrthonormalizeColumns(&sketch);
    }
  }
  return sketch;
}

}  // namespace embed
}  // namespace sgla
