#ifndef SGLA_EMBED_SKETCHNE_H_
#define SGLA_EMBED_SKETCHNE_H_

#include "la/dense.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace embed {

struct SketchNeOptions {
  int dim = 64;
};

/// Sketch-based embedding for graphs too large for the NetMF eigen path:
/// a randomized range finder on the 8th power of the normalized adjacency
/// (I - L), i.e. the dominant smoothed subspace, orthonormalized. The
/// Gaussian sketch has a fixed seed, so the result is deterministic.
Result<la::DenseMatrix> SketchNe(const la::CsrMatrix& laplacian,
                                 const SketchNeOptions& options = {});

}  // namespace embed
}  // namespace sgla

#endif  // SGLA_EMBED_SKETCHNE_H_
