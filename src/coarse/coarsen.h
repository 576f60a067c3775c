#ifndef SGLA_COARSE_COARSEN_H_
#define SGLA_COARSE_COARSEN_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"
#include "la/sparse.h"

namespace sgla {
namespace coarse {

/// Knobs of the multilevel heavy-edge coarsening pass.
struct CoarsenOptions {
  /// Target reduction: coarsening stops once the coarse row count reaches
  /// ~ratio * fine_rows (floored at min_coarse_rows). <= 0 disables
  /// coarsening (the plan comes back as the identity).
  double ratio = 0.1;
  /// Coarsening never goes below this many rows — the coarse graph has to
  /// stay large enough for the spectral pipeline to be meaningful.
  int64_t min_coarse_rows = 32;
};

/// The prolongation map of one coarsening: fine row -> coarse row, plus the
/// member count per coarse row. A plan is a pure function of the union
/// sparsity pattern and the per-view *structural* patterns — matching edge
/// weights are integer pattern multiplicities, never floating-point values —
/// so value-only graph deltas provably reproduce the identical plan, and the
/// whole construction is bit-identical across SGLA_THREADS and dispatched
/// ISAs (no SIMD kernel participates).
struct CoarsePlan {
  int64_t fine_rows = 0;
  int64_t coarse_rows = 0;
  std::vector<int64_t> fine_to_coarse;  ///< size fine_rows
  std::vector<int64_t> cluster_size;    ///< size coarse_rows
};

/// Multilevel greedy heavy-edge matching over the union pattern: per level,
/// vertices are visited in ascending index order and each unmatched vertex
/// pairs with its unmatched neighbor of maximum multiplicity (ties broken
/// toward the smallest neighbor index); coarse ids are assigned by first
/// appearance. Levels repeat until the target row count is reached or a
/// level shrinks the graph by less than 5% (matching saturated). `views`
/// supply the multiplicities — the number of views holding a structural
/// entry per union slot.
CoarsePlan BuildCoarsePlan(const la::CsrMatrix& union_pattern,
                           const std::vector<la::CsrMatrix>& views,
                           const CoarsenOptions& options = {});

/// Retired shim: overwrites `*plan` with BuildCoarsePlan(union_pattern,
/// views) at default CoarsenOptions and ignores `changed_rows`. An in-place
/// repair of only the clusters around changed rows made plans depend on the
/// delta history, so the registry re-plans from scratch on every pattern
/// delta instead (DESIGN.md "Tiered serving"). Nothing in the library calls
/// this; it stays until the e2ebench replay stops timing it as
/// `coarse.repair_ms`.
void RepairCoarsePlan(const la::CsrMatrix& union_pattern,
                      const std::vector<la::CsrMatrix>& views,
                      const std::vector<bool>& changed_rows,
                      CoarsePlan* plan);

/// Galerkin-style contraction of one fine normalized Laplacian: inter-cluster
/// similarity s_IJ sums max(0, -L_ij) over fine entries (i in I, j in J),
/// accumulated in ascending (member row, CSR slot) order per coarse row, and
/// the result is the normalized Laplacian of that coarse similarity graph —
/// re-normalizing keeps the spectrum in [0, 2], the bound the Lanczos
/// complement shift relies on. Row-parallel over coarse rows with the
/// chunked ParallelFor; bit-identical at any thread count.
la::CsrMatrix ContractView(const la::CsrMatrix& fine, const CoarsePlan& plan);

/// Per-cluster mean of the fine rows: out.Row(I) = mean of fine.Row(i) over
/// members i of I (ascending accumulation order). Used to rebuild attribute
/// views on the coarse node set.
la::DenseMatrix AverageRows(const la::DenseMatrix& fine,
                            const CoarsePlan& plan);

/// fine[i] = coarse_labels[plan.fine_to_coarse[i]] — the label prolongation
/// of the fast serving tier.
void ProlongateLabels(const CoarsePlan& plan,
                      const std::vector<int32_t>& coarse_labels,
                      std::vector<int32_t>* fine);

}  // namespace coarse
}  // namespace sgla

#endif  // SGLA_COARSE_COARSEN_H_
