#ifndef SGLA_CORE_AGGREGATOR_H_
#define SGLA_CORE_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "la/sparse.h"

namespace sgla {
namespace core {

/// Computes L_w = sum_i w_i L_i repeatedly for changing weights without
/// rebuilding the union sparsity pattern each time: the pattern and each
/// view's scatter map into it are precomputed once, so AggregateValuesInto()
/// is a pure fused-multiply pass over the union nnz. This is the hot inner
/// loop of the SGLA weight search (see DESIGN.md, "aggregator reuse").
///
/// An aggregator is immutable after construction, so any number of threads
/// may call AggregateValuesInto() concurrently, each with its own output
/// buffer — this is how the engine layer serves concurrent solves on one
/// registered graph.
class LaplacianAggregator {
 public:
  /// `views` must outlive the aggregator. All views share one shape.
  explicit LaplacianAggregator(const std::vector<la::CsrMatrix>* views);

  /// Pattern-donor form for value-only graph updates: every view of `views`
  /// must have exactly the sparsity pattern of the matching donor view
  /// (checked), and the new aggregator copies the donor's union pattern,
  /// scatter maps AND pattern_id instead of re-running the k-way merge.
  /// Keeping the donor's pattern_id is the point — workspaces stamped with
  /// it skip rebinding, so a value-only epoch swap costs zero pattern work
  /// on the solve hot path.
  LaplacianAggregator(const std::vector<la::CsrMatrix>* views,
                      const LaplacianAggregator& donor);

  int num_views() const { return static_cast<int>(views_->size()); }
  const std::vector<la::CsrMatrix>& views() const { return *views_; }

  /// Process-unique id of this aggregator's pattern. Workspaces stamp their
  /// output CSR with it so a buffer last filled from a *different* aggregator
  /// is re-bound instead of trusted (engine workers hop between graphs).
  uint64_t pattern_id() const { return pattern_id_; }

  /// The union-pattern CSR; every value is 0.0.
  const la::CsrMatrix& pattern() const { return pattern_; }

  /// Copies the union pattern into `out` (shape, row_ptr, col_idx) and sizes
  /// out->values; values content is unspecified. Reuses out's buffers.
  void BindPattern(la::CsrMatrix* out) const;

  /// Fills out->values with sum_i w_i L_i over the union pattern (weights
  /// size == num_views()); `out` must have been bound with BindPattern()
  /// first (checked). Thread-safe across distinct `out` buffers;
  /// allocation-free.
  void AggregateValuesInto(const std::vector<double>& weights,
                           la::CsrMatrix* out) const;

 private:
  void FillValues(const std::vector<double>& weights, double* values) const;

  const std::vector<la::CsrMatrix>* views_;
  la::CsrMatrix pattern_;                        ///< union pattern
  std::vector<std::vector<int64_t>> scatter_;    ///< view nnz -> union nnz
  uint64_t pattern_id_ = 0;
};

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_AGGREGATOR_H_
