#include "core/objective.h"

#include <algorithm>
#include <cmath>

namespace sgla {
namespace core {

SpectralObjective::SpectralObjective(const std::vector<la::CsrMatrix>* views,
                                     int k, const ObjectiveOptions& options)
    : owned_aggregator_(new LaplacianAggregator(views)),
      aggregator_(owned_aggregator_.get()),
      owned_workspace_(new EvalWorkspace()),
      workspace_(owned_workspace_.get()),
      k_(k),
      options_(options) {}

SpectralObjective::SpectralObjective(const LaplacianAggregator* aggregator,
                                     int k, const ObjectiveOptions& options,
                                     EvalWorkspace* workspace)
    : aggregator_(aggregator),
      workspace_(workspace),
      k_(k),
      options_(options) {}

Result<ObjectiveValue> SpectralObjective::Evaluate(
    const std::vector<double>& weights) {
  if (static_cast<int>(weights.size()) != num_views()) {
    return InvalidArgument("weight vector size != number of views");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (w < -1e-9) return InvalidArgument("negative view weight");
    sum += w;
  }
  if (std::fabs(sum - 1.0) > 1e-6) {
    return InvalidArgument("view weights must lie on the simplex");
  }

  // Convex combinations of normalized Laplacians keep the spectrum in [0, 2].
  const la::LanczosOptions lanczos;
  la::LanczosStats stats;
  Status solved;
  if (!la::UsesDenseFallback(aggregator_->pattern().rows, k_ + 1)) {
    // Lanczos-sized problem: aggregate straight into the aggregator's SELL
    // slot order and run the mat-vecs on its shared layout
    // (scalar-bit-identical to the CSR form; see la/sparse.h).
    aggregator_->AggregateSellValuesInto(weights, &workspace_->values);
    solved = la::SmallestEigenpairsInto(
        la::SellSpmvOperator(aggregator_->sell_layout(),
                             workspace_->values.data()),
        k_ + 1, 2.0, lanczos, &workspace_->lanczos, &workspace_->eigen,
        &stats);
  } else {
    // The dense fallback densifies a CSR; at these sizes (n <= 96) binding
    // it on every evaluation costs next to nothing.
    aggregator_->BindPattern(&workspace_->aggregate);
    aggregator_->AggregateValuesInto(weights, &workspace_->aggregate);
    solved = la::SmallestEigenpairsInto(workspace_->aggregate, k_ + 1, 2.0,
                                        lanczos, &workspace_->lanczos,
                                        &workspace_->eigen, &stats);
  }
  if (!solved.ok()) return solved;
  ++evaluations_;
  lanczos_iterations_ += stats.iterations;

  const la::Vector& lambda = workspace_->eigen.values;
  ObjectiveValue value;
  value.lambda2 =
      lambda.size() > 1 ? std::max(0.0, lambda[1]) : 0.0;
  const double lk = std::max(0.0, lambda[static_cast<size_t>(k_) - 1]);
  const double lk1 = std::max(0.0, lambda[static_cast<size_t>(k_)]);
  // Ratio eigengap: small when the k-cluster structure is crisp. The 1e-12
  // floor guards graphs with >= k+1 connected components.
  value.eigengap = lk / std::max(lk1, 1e-12);
  value.eigengap = std::min(value.eigengap, 1.0);

  value.h = options_.gamma * la::Dot(weights.data(), weights.data(),
                                     static_cast<int64_t>(weights.size()));
  if (options_.use_eigengap) value.h += value.eigengap;
  if (options_.use_connectivity) value.h -= value.lambda2;

  if (options_.robust && num_views() > 1) {
    // Cross-view agreement: each view's Rayleigh quotient against the
    // consensus Ritz vectors U (all k+1 of them), r_i = tr(U^T L_i U)/(k+1).
    // SpmvDense is row-parallel with a fixed grain and Dot is a single
    // contiguous pass, so the penalty is bit-deterministic across thread
    // counts — the serving determinism contract survives robust mode.
    const std::vector<la::CsrMatrix>& views = aggregator_->views();
    const la::DenseMatrix& u = workspace_->eigen.vectors;
    const int64_t cols = u.cols();
    workspace_->robust_r.resize(views.size());
    for (size_t i = 0; i < views.size(); ++i) {
      la::SpmvDense(views[i], u, &workspace_->robust_spmv);
      workspace_->robust_r[i] =
          la::Dot(u.data().data(), workspace_->robust_spmv.data().data(),
                  u.rows() * cols) /
          static_cast<double>(cols);
    }
    workspace_->robust_sorted = workspace_->robust_r;
    std::sort(workspace_->robust_sorted.begin(),
              workspace_->robust_sorted.end());
    const size_t mid = workspace_->robust_sorted.size() / 2;
    const double median =
        workspace_->robust_sorted.size() % 2 == 1
            ? workspace_->robust_sorted[mid]
            : 0.5 * (workspace_->robust_sorted[mid - 1] +
                     workspace_->robust_sorted[mid]);
    for (size_t i = 0; i < workspace_->robust_r.size(); ++i) {
      value.agreement +=
          weights[i] * std::fabs(workspace_->robust_r[i] - median);
    }
    value.h += options_.robust_rho * value.agreement;
  }
  value.lanczos_iterations = stats.iterations;
  return value;
}

}  // namespace core
}  // namespace sgla
