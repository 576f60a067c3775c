#include <algorithm>
#include <cmath>
#include <memory>

#include "core/integration.h"
#include "opt/quadratic_model.h"
#include "opt/simplex.h"
#include "util/rng.h"

namespace sgla {
namespace core {
namespace {

// Seed of the extra weight samples (sample_delta > 0) and the node sample.
constexpr uint64_t kSampleSeed = 416;
// Ridge coefficient of the quadratic surrogate fit.
constexpr double kSurrogateRidge = 0.05;

}  // namespace

std::vector<la::Vector> SglaPlusSamples(int r) {
  std::vector<la::Vector> samples;
  samples.push_back(la::Vector(static_cast<size_t>(r), 1.0 / r));
  for (int i = 0; i < r; ++i) {
    // Vertex-leaning sample: 60% on view i, the rest spread uniformly. These
    // probe each view's quality without leaving the simplex interior.
    la::Vector w(static_cast<size_t>(r), r > 1 ? 0.4 / (r - 1) : 0.0);
    w[static_cast<size_t>(i)] = r > 1 ? 0.6 : 1.0;
    samples.push_back(std::move(w));
  }
  return samples;
}

Result<IntegrationResult> SglaPlusOnAggregator(
    const LaplacianAggregator& aggregator, int k,
    const SglaPlusOptions& options, EvalWorkspace* workspace) {
  if (k < 2) return InvalidArgument("SGLA+ needs k >= 2");
  const std::vector<la::CsrMatrix>& views = aggregator.views();
  const int r = static_cast<int>(views.size());
  const int64_t n = views[0].rows;

  // Assemble the sample set: r+1 defaults, adjusted by sample_delta.
  std::vector<la::Vector> samples = SglaPlusSamples(r);
  Rng rng(kSampleSeed);
  int delta = options.sample_delta;
  while (delta < 0 && samples.size() > 2) {
    samples.pop_back();
    ++delta;
  }
  for (int extra = 0; extra < delta; ++extra) {
    la::Vector w(static_cast<size_t>(r));
    // Exponential spacings give uniform samples on the simplex.
    double sum = 0.0;
    for (double& x : w) {
      x = -std::log(std::max(rng.Uniform(), 1e-300));
      sum += x;
    }
    for (double& x : w) x /= sum;
    samples.push_back(std::move(w));
  }

  // Node sampling: evaluate the objective on an induced subgraph so each
  // eigensolve costs O(sample_nnz) instead of O(nnz). The sampled views and
  // their aggregator are per-call (the subgraph changes with the options);
  // only the evaluations inside reuse the caller's workspace.
  std::vector<la::CsrMatrix> sampled_views;
  std::unique_ptr<LaplacianAggregator> sampled_aggregator;
  if (options.max_objective_nodes > 0 && n > options.max_objective_nodes) {
    std::vector<int64_t> keep =
        rng.SampleWithoutReplacement(n, options.max_objective_nodes);
    sampled_views.reserve(views.size());
    for (const la::CsrMatrix& v : views) {
      sampled_views.push_back(la::SymmetricSubmatrix(v, keep));
    }
    sampled_aggregator.reset(new LaplacianAggregator(&sampled_views));
  }

  SpectralObjective objective(sampled_aggregator != nullptr
                                  ? sampled_aggregator.get()
                                  : &aggregator,
                              k, options.base.objective, workspace);
  IntegrationResult result;
  la::Vector values;
  values.reserve(samples.size());
  double best_sample_value = 1e30;
  la::Vector best_sample;
  for (const la::Vector& w : samples) {
    auto value = objective.Evaluate(w);
    if (!value.ok()) return value.status();
    values.push_back(value->h);
    result.weight_history.push_back(w);
    result.objective_history.push_back(value->h);
    if (value->h < best_sample_value) {
      best_sample_value = value->h;
      best_sample = w;
    }
  }

  auto model = opt::QuadraticModel::Fit(samples, values, kSurrogateRidge);
  if (!model.ok()) return model.status();
  la::Vector minimizer = model->MinimizeOnSimplex();

  // Guard against a bad extrapolation: if the surrogate minimizer is clearly
  // worse than the best sample, fall back to the sample (one extra solve).
  auto check = objective.Evaluate(minimizer);
  if (!check.ok() || check->h > best_sample_value + 1e-9) {
    minimizer = best_sample;
  } else {
    result.weight_history.push_back(minimizer);
    result.objective_history.push_back(check->h);
  }

  result.weights = std::move(minimizer);
  result.lanczos_iterations = objective.total_lanczos_iterations();
  result.evaluations = objective.evaluations();
  // The final aggregation always uses the full views.
  aggregator.BindPattern(&result.laplacian);
  aggregator.AggregateValuesInto(result.weights, &result.laplacian);
  return result;
}

Result<IntegrationResult> SglaPlus(const std::vector<la::CsrMatrix>& views,
                                   int k, const SglaPlusOptions& options) {
  if (views.empty()) return InvalidArgument("SGLA+ needs at least one view");
  LaplacianAggregator aggregator(&views);
  EvalWorkspace workspace;
  return SglaPlusOnAggregator(aggregator, k, options, &workspace);
}

}  // namespace core
}  // namespace sgla
