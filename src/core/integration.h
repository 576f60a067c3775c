#ifndef SGLA_CORE_INTEGRATION_H_
#define SGLA_CORE_INTEGRATION_H_

#include <cstdint>
#include <vector>

#include "core/objective.h"
#include "la/dense.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace core {

/// Derivative-free optimizer used for the SGLA weight search.
enum class WeightOptimizer {
  kCobyla,      ///< the paper's choice
  kNelderMead,  ///< ablation alternative
};

/// Output of an integration run (SGLA, SGLA+ or a fixed-weight baseline).
struct IntegrationResult {
  la::CsrMatrix laplacian;  ///< L_w* = sum_i w*_i L_i
  la::Vector weights;       ///< w* on the probability simplex
  /// Best objective value / weight vector after each optimizer iteration
  /// (for SGLA+ these are the surrogate sample evaluations).
  std::vector<double> objective_history;
  std::vector<la::Vector> weight_history;
  /// Total Lanczos basis vectors built across the run's eigensolves — the
  /// run's cost counter (0 for baselines that never ran the spectral
  /// objective).
  int64_t lanczos_iterations = 0;
  /// Objective evaluations the weight search made; SGLA stops before
  /// SglaOptions::max_evaluations once it converges (0 for baselines).
  int64_t evaluations = 0;
};

struct SglaOptions {
  ObjectiveOptions objective;
  WeightOptimizer optimizer = WeightOptimizer::kCobyla;
  /// Early-termination threshold on the per-iteration objective improvement.
  double epsilon = 1e-3;
  int max_evaluations = 60;  ///< the paper's T_max
};

/// Full SGLA: iterative derivative-free minimization of the spectral
/// objective over the weight simplex, one eigensolve per evaluation.
Result<IntegrationResult> Sgla(const std::vector<la::CsrMatrix>& views, int k,
                               const SglaOptions& options = {});

/// Session form of Sgla: the aggregator (its views and union pattern) is
/// prebuilt shared state — e.g. owned by a serve::GraphRegistry entry — and
/// `workspace` supplies every hot-loop buffer, so steady-state objective
/// evaluations allocate nothing. Bit-identical to Sgla() over the same
/// views at any thread count. Concurrent callers may share `aggregator` but
/// must each bring their own workspace.
Result<IntegrationResult> SglaOnAggregator(const LaplacianAggregator& aggregator,
                                           int k, const SglaOptions& options,
                                           EvalWorkspace* workspace);

struct SglaPlusOptions {
  SglaOptions base;
  /// Extra weight-vector samples beyond the default r+1 (may be negative;
  /// at least 2 samples are always kept). Fig. 10's delta_s.
  int sample_delta = 0;
  /// Node sampling: objective evaluations run on an induced subgraph of at
  /// most this many nodes (0 disables sampling). The final aggregation always
  /// uses the full views.
  int64_t max_objective_nodes = 4096;
};

/// SGLA+: evaluates the objective at a few sampled weight vectors (optionally
/// on a node-sampled subgraph), fits a quadratic surrogate and aggregates at
/// the surrogate's simplex minimizer — a constant number of eigensolves.
Result<IntegrationResult> SglaPlus(const std::vector<la::CsrMatrix>& views,
                                   int k, const SglaPlusOptions& options = {});

/// Session form of SglaPlus; see SglaOnAggregator. The node-sampling path
/// still builds its induced subgraph (and a sampled aggregator) per call —
/// only the objective evaluations inside reuse `workspace`.
Result<IntegrationResult> SglaPlusOnAggregator(
    const LaplacianAggregator& aggregator, int k,
    const SglaPlusOptions& options, EvalWorkspace* workspace);

/// The default SGLA+ sample set for r views: the uniform vector plus r
/// vertex-leaning vectors (r+1 samples, matching the paper's r+1 default).
std::vector<la::Vector> SglaPlusSamples(int r);

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_INTEGRATION_H_
