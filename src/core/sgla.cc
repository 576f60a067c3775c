#include <cmath>

#include "core/integration.h"
#include "opt/simplex.h"

namespace sgla {
namespace core {

Result<IntegrationResult> SglaOnAggregator(const LaplacianAggregator& aggregator,
                                           int k, const SglaOptions& options,
                                           EvalWorkspace* workspace) {
  if (k < 2) return InvalidArgument("SGLA needs k >= 2");
  SpectralObjective objective(&aggregator, k, options.objective, workspace);
  Status first_failure;
  auto h = [&objective, &first_failure](const la::Vector& w) {
    auto value = objective.Evaluate(w);
    if (value.ok()) return value->h;
    // An isolated failed evaluation repels the optimizer instead of
    // aborting; the first failure is kept in case none succeeds.
    if (first_failure.ok()) first_failure = value.status();
    return 1e30;
  };

  opt::SimplexOptions simplex;
  simplex.method = options.optimizer == WeightOptimizer::kNelderMead
                       ? opt::SimplexMethod::kNelderMead
                       : opt::SimplexMethod::kCobyla;
  simplex.epsilon = options.epsilon;
  simplex.max_evaluations = options.max_evaluations;
  auto trace = opt::MinimizeOnSimplex(aggregator.num_views(), h, simplex);
  if (!trace.ok()) return trace.status();
  // With every evaluation failed the optimizer just returns its start
  // point: report why instead of serving those weights.
  if (objective.evaluations() == 0 && !first_failure.ok()) {
    return first_failure;
  }

  IntegrationResult result;
  result.weights = trace->best_point;
  result.objective_history = std::move(trace->value_history);
  result.weight_history = std::move(trace->point_history);
  aggregator.BindPattern(&result.laplacian);
  aggregator.AggregateValuesInto(result.weights, &result.laplacian);
  result.lanczos_iterations = objective.total_lanczos_iterations();
  result.evaluations = objective.evaluations();
  return result;
}

Result<IntegrationResult> Sgla(const std::vector<la::CsrMatrix>& views, int k,
                               const SglaOptions& options) {
  if (views.empty()) return InvalidArgument("SGLA needs at least one view");
  LaplacianAggregator aggregator(&views);
  EvalWorkspace workspace;
  return SglaOnAggregator(aggregator, k, options, &workspace);
}

}  // namespace core
}  // namespace sgla
