#ifndef SGLA_CORE_AGGREGATOR_H_
#define SGLA_CORE_AGGREGATOR_H_

#include <cstdint>
#include <vector>

#include "la/sparse.h"

namespace sgla {
namespace core {

/// Computes L_w = sum_i w_i L_i repeatedly for changing weights without
/// rebuilding the union sparsity pattern each time: the pattern, its SELL
/// layout and each view's scatter map into that layout are precomputed
/// once, so AggregateSellValuesInto() is a pure fused-multiply pass over
/// the union nnz. This is the hot inner loop of the SGLA weight search (see
/// DESIGN.md, "aggregator reuse").
///
/// An aggregator is immutable after construction, so any number of threads
/// may aggregate concurrently, each into its own output buffer — this is
/// how the engine layer serves concurrent solves on one registered graph.
class LaplacianAggregator {
 public:
  /// `views` must outlive the aggregator. All views share one shape.
  explicit LaplacianAggregator(const std::vector<la::CsrMatrix>* views);

  /// Pattern-donor form for value-only graph updates: every view of `views`
  /// must have exactly the sparsity pattern of the matching donor view
  /// (checked), and the new aggregator copies the donor's union pattern,
  /// SELL layout, scatter maps AND pattern_id instead of re-running the
  /// k-way merge and the layout build.
  LaplacianAggregator(const std::vector<la::CsrMatrix>* views,
                      const LaplacianAggregator& donor);

  int num_views() const { return static_cast<int>(views_->size()); }
  const std::vector<la::CsrMatrix>& views() const { return *views_; }

  /// Process-unique id of this aggregator's union pattern: a pattern-donor
  /// copy keeps its donor's id, any other construction draws a fresh one.
  uint64_t pattern_id() const { return pattern_id_; }

  /// The union-pattern CSR: shape, row_ptr and col_idx only — `values` is
  /// empty (the coarse planner reads the structure alone). At n = 8000 on
  /// the e2ebench fixture that is ~3.1 MB; the SELL layout adds ~3.2 MB and
  /// the scatter maps 8 bytes per view nonzero (~3.2 MB).
  const la::CsrMatrix& pattern() const { return pattern_; }

  /// SELL-C-σ layout of pattern() with `values` empty: the slot order of
  /// AggregateSellValuesInto(). Built window-parallel at construction.
  const la::SellMatrix& sell_layout() const { return sell_; }

  /// Copies the union pattern into `out` (shape, row_ptr, col_idx) and sizes
  /// out->values; values content is unspecified. Reuses out's buffers.
  void BindPattern(la::CsrMatrix* out) const;

  /// Fills out->values with sum_i w_i L_i over the union pattern (weights
  /// size == num_views()); `out` must have been bound with BindPattern()
  /// first (checked). Every value is bit-identical to the matching slot of
  /// AggregateSellValuesInto(). Thread-safe across distinct `out` buffers;
  /// allocation-free.
  void AggregateValuesInto(const std::vector<double>& weights,
                           la::CsrMatrix* out) const;

  /// Resizes `values` to sell_layout().num_slots() and fills it with
  /// sum_i w_i L_i in SELL slot order, 0.0 in padding and ghost slots — the
  /// value array SellSpmv takes with sell_layout(). Per slot the view
  /// contributions are summed in ascending view order, so every value
  /// equals BuildSellPattern of the AggregateValuesInto() CSR, at any
  /// thread count and on every ISA. Thread-safe across distinct buffers;
  /// allocation-free once `values` has the capacity.
  void AggregateSellValuesInto(const std::vector<double>& weights,
                               std::vector<double>* values) const;

 private:
  const std::vector<la::CsrMatrix>* views_;
  la::CsrMatrix pattern_;  ///< union pattern, no values
  la::SellMatrix sell_;    ///< its layout, no values
  /// Per view, where each nonzero lands: in the union CSR and in the SELL
  /// layout, as offsets from its σ window's first output slot. Window
  /// offsets fit int32, so the two maps together cost one int64 per view
  /// nonzero, and both fills run the same direct scatter kernel.
  std::vector<std::vector<int32_t>> csr_scatter_;
  std::vector<std::vector<int32_t>> sell_scatter_;
  uint64_t pattern_id_ = 0;
};

}  // namespace core
}  // namespace sgla

#endif  // SGLA_CORE_AGGREGATOR_H_
