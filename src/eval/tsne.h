#ifndef SGLA_EVAL_TSNE_H_
#define SGLA_EVAL_TSNE_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"
#include "util/status.h"

namespace sgla {
namespace eval {

struct TsneOptions {
  int max_iterations = 500;
  /// Points beyond this count are uniformly subsampled (t-SNE is O(n^2));
  /// 0 keeps everything.
  int64_t max_points = 2000;
};

/// Exact (non-Barnes-Hut) t-SNE to 2 dimensions at perplexity 30 (capped at
/// (n - 1) / 3) and learning rate 200, from a fixed seed. If `kept_indices`
/// is non-null it receives the original row index of each output row
/// (identity when no subsampling happened).
Result<la::DenseMatrix> Tsne(const la::DenseMatrix& points,
                             const TsneOptions& options = {},
                             std::vector<int64_t>* kept_indices = nullptr);

}  // namespace eval
}  // namespace sgla

#endif  // SGLA_EVAL_TSNE_H_
