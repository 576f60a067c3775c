#include "opt/simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace sgla {
namespace opt {
namespace {

// Coordinate shift of the initial simplex, and COBYLA's initial and final
// trust-region radius.
constexpr double kInitialStep = 0.3;
constexpr double kMinStep = 1e-4;

struct Evaluated {
  la::Vector point;
  double value;
};

void RecordIteration(const Evaluated& best, SimplexTrace* trace) {
  trace->value_history.push_back(best.value);
  trace->point_history.push_back(best.point);
}

/// Initial regular-ish simplex: the uniform vector plus one vertex-shifted
/// point per coordinate, all projected back onto the feasible set.
std::vector<la::Vector> InitialSimplex(int dim) {
  std::vector<la::Vector> points;
  points.emplace_back(static_cast<size_t>(dim), 1.0 / dim);
  for (int i = 0; i < dim; ++i) {
    la::Vector p = points.front();
    p[static_cast<size_t>(i)] += kInitialStep;
    points.push_back(ProjectToSimplex(std::move(p)));
  }
  return points;
}

Result<SimplexTrace> NelderMead(
    int dim, const std::function<double(const la::Vector&)>& f,
    const SimplexOptions& options) {
  SimplexTrace trace;
  std::vector<Evaluated> simplex;
  for (la::Vector& p : InitialSimplex(dim)) {
    simplex.push_back({p, f(p)});
    ++trace.evaluations;
  }
  auto by_value = [](const Evaluated& a, const Evaluated& b) {
    return a.value < b.value;
  };
  std::sort(simplex.begin(), simplex.end(), by_value);
  RecordIteration(simplex.front(), &trace);

  const size_t last = simplex.size() - 1;
  int stall = 0;  // consecutive iterations without an epsilon improvement
  auto evaluate = [&](la::Vector p) -> Evaluated {
    p = ProjectToSimplex(std::move(p));
    ++trace.evaluations;
    const double v = f(p);
    return {std::move(p), v};
  };

  while (trace.evaluations < options.max_evaluations) {
    const double previous_best = simplex.front().value;

    la::Vector centroid(static_cast<size_t>(dim), 0.0);
    for (size_t i = 0; i < last; ++i) {
      la::Axpy(1.0 / static_cast<double>(last), simplex[i].point.data(),
               centroid.data(), dim);
    }
    auto blend = [&](double t) {
      la::Vector p(static_cast<size_t>(dim));
      for (int j = 0; j < dim; ++j) {
        p[static_cast<size_t>(j)] =
            centroid[static_cast<size_t>(j)] +
            t * (centroid[static_cast<size_t>(j)] -
                 simplex[last].point[static_cast<size_t>(j)]);
      }
      return p;
    };

    Evaluated reflected = evaluate(blend(1.0));
    if (reflected.value < simplex.front().value) {
      Evaluated expanded = evaluate(blend(2.0));
      simplex[last] = expanded.value < reflected.value ? expanded : reflected;
    } else if (reflected.value < simplex[last - 1].value) {
      simplex[last] = reflected;
    } else {
      Evaluated contracted = evaluate(blend(-0.5));
      if (contracted.value < simplex[last].value) {
        simplex[last] = contracted;
      } else {
        // Shrink toward the best vertex.
        for (size_t i = 1; i < simplex.size(); ++i) {
          la::Vector p(static_cast<size_t>(dim));
          for (int j = 0; j < dim; ++j) {
            p[static_cast<size_t>(j)] =
                0.5 * (simplex[0].point[static_cast<size_t>(j)] +
                       simplex[i].point[static_cast<size_t>(j)]);
          }
          simplex[i] = evaluate(std::move(p));
          if (trace.evaluations >= options.max_evaluations) break;
        }
      }
    }
    std::sort(simplex.begin(), simplex.end(), by_value);
    RecordIteration(simplex.front(), &trace);
    // Nelder-Mead routinely has non-improving iterations (rejected
    // reflections); only a sustained stall means convergence.
    if (previous_best - simplex.front().value < options.epsilon) {
      if (++stall >= 2 * dim + 2) break;
    } else {
      stall = 0;
    }
  }
  trace.best_point = simplex.front().point;
  trace.best_value = simplex.front().value;
  return trace;
}

/// COBYLA-style: fit the linear interpolant of f on the current point set and
/// step to its minimizer within a shrinking trust region, projected onto the
/// simplex. Derivative-free, monotone in the incumbent.
Result<SimplexTrace> Cobyla(int dim,
                            const std::function<double(const la::Vector&)>& f,
                            const SimplexOptions& options) {
  SimplexTrace trace;
  std::vector<Evaluated> points;
  for (la::Vector& p : InitialSimplex(dim)) {
    points.push_back({p, f(p)});
    ++trace.evaluations;
  }
  auto best_it = std::min_element(
      points.begin(), points.end(),
      [](const Evaluated& a, const Evaluated& b) { return a.value < b.value; });
  Evaluated best = *best_it;
  RecordIteration(best, &trace);

  double radius = kInitialStep;
  while (trace.evaluations < options.max_evaluations && radius > kMinStep) {
    // Least-squares linear model value ~ c + g.w over the current point set.
    // Normal equations in dim+1 unknowns; dim is small (the view count).
    const int m = dim + 1;
    la::DenseMatrix ata(m, m);
    la::Vector atb(static_cast<size_t>(m), 0.0);
    for (const Evaluated& e : points) {
      la::Vector row(static_cast<size_t>(m), 1.0);
      for (int j = 0; j < dim; ++j) {
        row[static_cast<size_t>(j) + 1] = e.point[static_cast<size_t>(j)];
      }
      for (int a = 0; a < m; ++a) {
        for (int b = 0; b < m; ++b) {
          ata(a, b) += row[static_cast<size_t>(a)] * row[static_cast<size_t>(b)];
        }
        atb[static_cast<size_t>(a)] += row[static_cast<size_t>(a)] * e.value;
      }
    }
    const la::Vector coef =
        la::SolveRidgedSystem(std::move(ata), std::move(atb), 1e-9);

    // Step against the model gradient within the trust region.
    la::Vector gradient(static_cast<size_t>(dim));
    for (int j = 0; j < dim; ++j) {
      gradient[static_cast<size_t>(j)] = coef[static_cast<size_t>(j) + 1];
    }
    const double gnorm = la::Norm2(gradient.data(), dim);
    if (gnorm < 1e-14) {
      radius *= 0.5;
      RecordIteration(best, &trace);
      continue;
    }
    la::Vector candidate = best.point;
    la::Axpy(-radius / gnorm, gradient.data(), candidate.data(), dim);
    candidate = ProjectToSimplex(std::move(candidate));
    ++trace.evaluations;
    Evaluated next{candidate, f(candidate)};

    // Replace the worst interpolation point to keep the set fresh.
    auto worst_it = std::max_element(
        points.begin(), points.end(),
        [](const Evaluated& a, const Evaluated& b) { return a.value < b.value; });
    *worst_it = next;

    const double improvement = best.value - next.value;
    if (next.value < best.value) best = next;
    RecordIteration(best, &trace);
    if (improvement < options.epsilon) {
      radius *= 0.5;  // no (or marginal) progress: tighten the region
    } else if (improvement > 0.0) {
      radius = std::min(radius * 1.4, 0.5);
    }
    if (improvement > 0.0 && improvement < options.epsilon &&
        trace.value_history.size() > 3) {
      break;
    }
  }
  trace.best_point = best.point;
  trace.best_value = best.value;
  return trace;
}

}  // namespace

la::Vector ProjectToSimplex(la::Vector w) {
  // Held-Wolfe-Crowder projection via the sorted-threshold characterization.
  const int64_t n = static_cast<int64_t>(w.size());
  SGLA_CHECK(n > 0) << "projection of empty vector";
  la::Vector sorted = w;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double cumulative = 0.0;
  double theta = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    cumulative += sorted[static_cast<size_t>(i)];
    const double candidate =
        (cumulative - 1.0) / static_cast<double>(i + 1);
    if (sorted[static_cast<size_t>(i)] - candidate > 0.0) theta = candidate;
  }
  for (double& x : w) x = std::max(0.0, x - theta);
  // Guard accumulated round-off so downstream simplex checks pass exactly.
  double sum = std::accumulate(w.begin(), w.end(), 0.0);
  if (sum <= 0.0) {
    std::fill(w.begin(), w.end(), 1.0 / static_cast<double>(n));
  } else {
    for (double& x : w) x /= sum;
  }
  return w;
}

Result<SimplexTrace> MinimizeOnSimplex(
    int dim, const std::function<double(const la::Vector&)>& f,
    const SimplexOptions& options) {
  if (dim <= 0) return InvalidArgument("simplex dimension must be positive");
  if (dim == 1) {
    SimplexTrace trace;
    trace.best_point = {1.0};
    trace.best_value = f(trace.best_point);
    trace.evaluations = 1;
    trace.value_history = {trace.best_value};
    trace.point_history = {trace.best_point};
    return trace;
  }
  switch (options.method) {
    case SimplexMethod::kNelderMead:
      return NelderMead(dim, f, options);
    case SimplexMethod::kCobyla:
      return Cobyla(dim, f, options);
  }
  return InvalidArgument("unknown simplex method");
}

}  // namespace opt
}  // namespace sgla
