#include "eval/tsne.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace sgla {
namespace eval {
namespace {

constexpr double kPerplexity = 30.0;
constexpr double kLearningRate = 200.0;
constexpr uint64_t kTsneSeed = 31337;

/// Row-conditional probabilities with the beta (1 / 2sigma^2) found by
/// bisection to hit the target perplexity.
void ComputeRowAffinities(const std::vector<double>& dist2_row, int64_t self,
                          double perplexity, std::vector<double>* p_row) {
  const int64_t n = static_cast<int64_t>(dist2_row.size());
  const double target_entropy = std::log(perplexity);
  double beta = 1.0, beta_min = 0.0, beta_max = 1e30;
  for (int iter = 0; iter < 64; ++iter) {
    double sum = 0.0, weighted = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      if (j == self) {
        (*p_row)[static_cast<size_t>(j)] = 0.0;
        continue;
      }
      const double p = std::exp(-beta * dist2_row[static_cast<size_t>(j)]);
      (*p_row)[static_cast<size_t>(j)] = p;
      sum += p;
      weighted += beta * dist2_row[static_cast<size_t>(j)] * p;
    }
    if (sum <= 1e-300) {
      beta_max = beta;
      beta = 0.5 * (beta_min + beta);
      continue;
    }
    const double entropy = std::log(sum) + weighted / sum;
    if (std::fabs(entropy - target_entropy) < 1e-5) break;
    if (entropy > target_entropy) {
      beta_min = beta;
      beta = beta_max > 1e29 ? beta * 2.0 : 0.5 * (beta + beta_max);
    } else {
      beta_max = beta;
      beta = 0.5 * (beta + beta_min);
    }
  }
  double sum = 0.0;
  for (double p : *p_row) sum += p;
  if (sum > 0.0) {
    for (double& p : *p_row) p /= sum;
  }
}

}  // namespace

Result<la::DenseMatrix> Tsne(const la::DenseMatrix& points,
                             const TsneOptions& options,
                             std::vector<int64_t>* kept_indices) {
  const int64_t total = points.rows();
  if (total < 5) return InvalidArgument("t-SNE needs at least 5 points");

  Rng rng(kTsneSeed);
  std::vector<int64_t> kept;
  if (options.max_points > 0 && total > options.max_points) {
    kept = rng.SampleWithoutReplacement(total, options.max_points);
  } else {
    kept.resize(static_cast<size_t>(total));
    for (int64_t i = 0; i < total; ++i) kept[static_cast<size_t>(i)] = i;
  }
  const int64_t n = static_cast<int64_t>(kept.size());
  const int64_t d = points.cols();
  if (kept_indices != nullptr) *kept_indices = kept;

  // Symmetric affinities P.
  std::vector<double> dist2(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double d2 = la::SquaredDistance(points.Row(kept[static_cast<size_t>(i)]),
                                            points.Row(kept[static_cast<size_t>(j)]), d);
      dist2[static_cast<size_t>(i * n + j)] = d2;
      dist2[static_cast<size_t>(j * n + i)] = d2;
    }
  }
  const double perplexity =
      std::min(kPerplexity, static_cast<double>(n - 1) / 3.0);
  std::vector<double> p(static_cast<size_t>(n * n), 0.0);
  {
    std::vector<double> row(static_cast<size_t>(n));
    std::vector<double> p_row(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      std::copy(dist2.begin() + i * n, dist2.begin() + (i + 1) * n, row.begin());
      ComputeRowAffinities(row, i, perplexity, &p_row);
      for (int64_t j = 0; j < n; ++j) {
        p[static_cast<size_t>(i * n + j)] += p_row[static_cast<size_t>(j)];
        p[static_cast<size_t>(j * n + i)] += p_row[static_cast<size_t>(j)];
      }
    }
    double sum = 0.0;
    for (double v : p) sum += v;
    for (double& v : p) v = std::max(v / sum, 1e-12);
  }

  // Gradient descent with momentum and early exaggeration.
  la::DenseMatrix y(n, 2);
  for (int64_t i = 0; i < n; ++i) {
    y(i, 0) = rng.Gaussian() * 1e-4;
    y(i, 1) = rng.Gaussian() * 1e-4;
  }
  la::DenseMatrix velocity(n, 2);
  std::vector<double> q(static_cast<size_t>(n * n), 0.0);
  const int exaggeration_iters = std::min(100, options.max_iterations / 3);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double exaggeration = iter < exaggeration_iters ? 4.0 : 1.0;
    const double momentum = iter < exaggeration_iters ? 0.5 : 0.8;
    double q_sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        const double dy0 = y(i, 0) - y(j, 0);
        const double dy1 = y(i, 1) - y(j, 1);
        const double w = 1.0 / (1.0 + dy0 * dy0 + dy1 * dy1);
        q[static_cast<size_t>(i * n + j)] = w;
        q[static_cast<size_t>(j * n + i)] = w;
        q_sum += 2.0 * w;
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      double g0 = 0.0, g1 = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const double w = q[static_cast<size_t>(i * n + j)];
        const double coeff =
            (exaggeration * p[static_cast<size_t>(i * n + j)] - w / q_sum) * w;
        g0 += 4.0 * coeff * (y(i, 0) - y(j, 0));
        g1 += 4.0 * coeff * (y(i, 1) - y(j, 1));
      }
      velocity(i, 0) = momentum * velocity(i, 0) - kLearningRate * g0;
      velocity(i, 1) = momentum * velocity(i, 1) - kLearningRate * g1;
    }
    for (int64_t i = 0; i < n; ++i) {
      y(i, 0) += velocity(i, 0);
      y(i, 1) += velocity(i, 1);
    }
  }
  return y;
}

}  // namespace eval
}  // namespace sgla
