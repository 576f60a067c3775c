#ifndef SGLA_CORE_OBJECTIVE_H_
#define SGLA_CORE_OBJECTIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/aggregator.h"
#include "la/lanczos.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace core {

struct ObjectiveOptions {
  /// Weight-regularization coefficient of Eq. 5: gamma * ||w||_2^2 is added
  /// to the spectral terms. Positive values pull toward uniform weights,
  /// negative values reward concentrating on a single view.
  double gamma = 0.5;
  /// Ablation switches (Fig. 11): the full objective uses both terms.
  bool use_eigengap = true;
  bool use_connectivity = true;
  /// Robust mode (serving's corrupted-view defense): adds
  /// robust_rho * sum_i w_i * |r_i - median(r)| to h, where r_i is view i's
  /// Rayleigh quotient trace(U^T L_i U) / (k+1) against the consensus Ritz
  /// vectors U of the CURRENT aggregate. Views whose spectra disagree with
  /// the median view get penalized in proportion to the weight placed on
  /// them, so the search pushes weight off outlier (noise/corrupted) views —
  /// countering the connectivity term's attraction to expander-like random
  /// graphs. Off by default: bit-identical to the plain objective.
  bool robust = false;
  double robust_rho = 1.0;
};

/// One evaluation of the integration objective at a weight vector.
struct ObjectiveValue {
  double h = 0.0;         ///< full objective (lower is better)
  double eigengap = 0.0;  ///< g_k(L_w) = lambda_k / lambda_{k+1}, in [0, 1]
  double lambda2 = 0.0;   ///< algebraic connectivity of L_w
  /// Cross-view agreement penalty (0 unless ObjectiveOptions::robust):
  /// sum_i w_i * |r_i - median(r)|, before the robust_rho scaling.
  double agreement = 0.0;
  /// Lanczos basis vectors the evaluation's eigensolve built (0 on the
  /// dense fallback) — the evaluation's cost metric.
  int lanczos_iterations = 0;
};

/// All mutable hot-loop state of one objective-evaluation session: the
/// aggregate's values in the evaluated aggregator's SELL slot order, the
/// Lanczos basis/panel scratch, and the eigenpair output buffers. The
/// union pattern and its SELL layout live in the aggregator, once per
/// graph, so binding a workspace to another graph is a resize of `values`.
/// After a warm-up evaluation sizes every buffer, steady-state evaluations
/// at the same problem size perform zero heap allocations, and so does
/// hopping between graphs the workspace has already served. Workspaces must
/// not be shared by two concurrent evaluations.
///
/// Sizes on the e2ebench fixture (~48 nnz per row, k = 4): at n = 8000,
/// `values` is ~3.1 MB and `lanczos` ~4.4 MB; at n = 2000, ~0.8 MB and
/// ~1.1 MB. `eigen` holds n * (k + 1) doubles.
struct EvalWorkspace {
  std::vector<double> values;  ///< L_w in the aggregator's SELL slot order
  /// Union-pattern CSR of L_w, for the dense-fallback sizes only
  /// (la::UsesDenseFallback: n <= 96); empty for Lanczos-sized graphs.
  la::CsrMatrix aggregate;
  la::LanczosWorkspace lanczos;
  la::Eigenpairs eigen;
  /// Robust-mode scratch (sized on first robust Evaluate, idle otherwise):
  /// the per-view L_i * U panel and the Rayleigh-quotient vectors.
  la::DenseMatrix robust_spmv;
  std::vector<double> robust_r;
  std::vector<double> robust_sorted;
};

/// h(w) = g_k(L_w) - lambda_2(L_w) + gamma * ||w||^2, evaluated through one
/// Lanczos solve on the aggregated Laplacian. The aggregator pattern is
/// computed once (or borrowed, already built, from a registry entry) and
/// reused across evaluations, so repeated calls only pay values-fill + solve
/// — with a warm workspace, allocation-free.
class SpectralObjective {
 public:
  /// Owning form: builds a private aggregator over `views` (which must
  /// outlive the objective) and a private workspace.
  SpectralObjective(const std::vector<la::CsrMatrix>* views, int k,
                    const ObjectiveOptions& options = {});

  /// Shared form: `aggregator` (e.g. owned by a serve::GraphRegistry entry)
  /// and `workspace` are borrowed and must outlive the objective. Multiple
  /// SpectralObjectives may share one aggregator concurrently as long as
  /// each has its own workspace.
  SpectralObjective(const LaplacianAggregator* aggregator, int k,
                    const ObjectiveOptions& options, EvalWorkspace* workspace);

  int num_views() const { return aggregator_->num_views(); }
  int k() const { return k_; }
  const ObjectiveOptions& options() const { return options_; }

  Result<ObjectiveValue> Evaluate(const std::vector<double>& weights);

  /// Number of Evaluate() calls so far (the paper's iteration counter t).
  int64_t evaluations() const { return evaluations_; }

  /// Total Lanczos basis vectors built across all Evaluate() calls — the
  /// solve-cost counter the serving layer reports per response.
  int64_t total_lanczos_iterations() const { return lanczos_iterations_; }

 private:
  std::unique_ptr<LaplacianAggregator> owned_aggregator_;
  const LaplacianAggregator* aggregator_;
  std::unique_ptr<EvalWorkspace> owned_workspace_;
  EvalWorkspace* workspace_;
  int k_;
  ObjectiveOptions options_;
  int64_t evaluations_ = 0;
  int64_t lanczos_iterations_ = 0;
};

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_OBJECTIVE_H_
