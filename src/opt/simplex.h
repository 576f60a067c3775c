#ifndef SGLA_OPT_SIMPLEX_H_
#define SGLA_OPT_SIMPLEX_H_

#include <functional>
#include <vector>

#include "la/dense.h"
#include "util/status.h"

namespace sgla {
namespace opt {

enum class SimplexMethod {
  kCobyla,      ///< linear-surrogate trust region (COBYLA-style)
  kNelderMead,  ///< projected Nelder-Mead
};

struct SimplexOptions {
  SimplexMethod method = SimplexMethod::kCobyla;
  int max_evaluations = 120;
  /// Stop once an optimizer iteration improves the best value by less than
  /// this (the paper's early-termination threshold epsilon).
  double epsilon = 1e-3;
};

struct SimplexTrace {
  la::Vector best_point;
  double best_value = 0.0;
  int64_t evaluations = 0;
  /// Best-so-far value and point after each optimizer iteration
  /// (monotonically non-increasing values).
  std::vector<double> value_history;
  std::vector<la::Vector> point_history;
};

/// Euclidean projection onto the probability simplex {w >= 0, sum w = 1}.
la::Vector ProjectToSimplex(la::Vector w);

/// Minimizes f over the `dim`-dimensional probability simplex starting from
/// the uniform vector and one point per coordinate shifted by 0.3 toward it.
/// f may be noisy/expensive; evaluation count is bounded by
/// options.max_evaluations. Derivative-free; COBYLA also stops once its
/// trust radius (starting at 0.3) shrinks to 1e-4.
Result<SimplexTrace> MinimizeOnSimplex(
    int dim, const std::function<double(const la::Vector&)>& f,
    const SimplexOptions& options = {});

}  // namespace opt
}  // namespace sgla

#endif  // SGLA_OPT_SIMPLEX_H_
