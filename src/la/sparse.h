#ifndef SGLA_LA_SPARSE_H_
#define SGLA_LA_SPARSE_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"

namespace sgla {
namespace la {

/// Compressed sparse row matrix with double values. Fields are public: the
/// aggregator and IO layers build/patch them directly.
struct CsrMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col_idx;  ///< size nnz
  std::vector<double> values;    ///< size nnz

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }
};

/// COO triplet used when assembling matrices.
struct Triplet {
  int64_t row = 0;
  int64_t col = 0;
  double value = 0.0;
};

/// Rows per SELL slice (the C of SELL-C-σ). 8 doubles = one AVX-512
/// register / two AVX2 registers per column step.
constexpr int64_t kSellLanes = 8;
/// The σ sort window: rows are sorted by descending nnz only *within*
/// windows of this many rows. 512 is a multiple of every row-kernel chunk
/// grain (512 rows for CSR SpMV, aggregation and the SELL kernel's 64-slice
/// chunks, 256 for k-means, 128 for dense SpMV), so each SELL chunk covers
/// exactly one window. Changing it changes the SELL layout (slot order and
/// padding) of every serving matrix.
constexpr int64_t kSellSortWindow = 512;

/// SELL-C-σ companion layout of a CsrMatrix: rows are permuted by
/// descending nnz within each kSellSortWindow-row window, grouped into
/// slices of kSellLanes rows, and each slice is padded to its longest row.
/// Storage is lane-minor — slot j of slice s, lane l lives at
/// (slice_ptr[s] + j) * kSellLanes + l — so one vector register walks a
/// whole slice column-step by column-step. Padding slots carry value 0.0
/// and column 0; ghost lanes (beyond the final row) have perm < 0. Column
/// indices are int32 (half the bytes of the CSR's, and what the vector
/// kernels gather with), so a layout needs cols <= INT32_MAX; no layout is
/// ever serialized, so the width is free to change. The rows
/// of window [lo, lo + kSellSortWindow) fill exactly the slots and slices of
/// that window, so a row-parallel loop at that grain owns whole slices.
///
/// The layout (everything except `values`) is a pure function of the CSR
/// sparsity. It may travel without values: core::LaplacianAggregator keeps
/// one bare layout per registered graph, and each solve keeps only a value
/// array in its slot order (the SellSpmv overload that takes one).
struct SellMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> slice_ptr;  ///< num_slices + 1, in column steps
  std::vector<int32_t> col_idx;    ///< slice_ptr.back() * kSellLanes
  std::vector<double> values;      ///< same size as col_idx; empty if bare
  std::vector<int64_t> row_len;    ///< per slot: unpadded row length
  std::vector<int64_t> perm;       ///< per slot: source row, < 0 for ghosts
  int64_t num_slices() const {
    return static_cast<int64_t>(slice_ptr.size()) - 1;
  }
  /// Value slots, padding included: the size of a value array for it.
  int64_t num_slots() const { return static_cast<int64_t>(col_idx.size()); }
};

/// Storage index of column step 0 of `slot` (slice * kSellLanes + lane):
/// entry j of row m.perm[slot] lives at SellSlotBase(m, slot) +
/// j * kSellLanes.
inline int64_t SellSlotBase(const SellMatrix& m, int64_t slot) {
  return m.slice_ptr[static_cast<size_t>(slot / kSellLanes)] * kSellLanes +
         slot % kSellLanes;
}

/// (Re)builds `out` as the bare SELL layout of `m`'s sparsity (out->values
/// cleared), reusing its buffers' capacity. One σ window per chunk on the
/// global pool; the layout does not depend on the thread count. Aborts if
/// m.cols exceeds INT32_MAX.
void BuildSellLayout(const CsrMatrix& m, SellMatrix* out);

/// BuildSellLayout plus m's values copied into slot order (0.0 in padding).
void BuildSellPattern(const CsrMatrix& m, SellMatrix* out);

/// y = M * x over the SELL form; bit-identical at any thread count, and
/// under SGLA_ISA=scalar bit-identical to Spmv on the source CSR (the
/// scalar kernel walks each row's entries in CSR order, skipping padding).
void SellSpmv(const SellMatrix& m, const double* x, double* y);

/// The same product over the layout of `m` with the values held elsewhere:
/// `values` has m.num_slots() entries in slot order, 0.0 in padding slots.
/// m.values is not read.
void SellSpmv(const SellMatrix& m, const double* values, const double* x,
              double* y);

/// Builds CSR from triplets, summing duplicates; entries sorted by (row, col).
CsrMatrix FromTriplets(int64_t rows, int64_t cols, std::vector<Triplet> entries);

/// y = M * x. x has m.cols entries, y has m.rows entries (overwritten).
void Spmv(const CsrMatrix& m, const double* x, double* y);

/// Y = M * X for a dense block X (n x d), written into Y (rows x d).
void SpmvDense(const CsrMatrix& m, const DenseMatrix& x, DenseMatrix* y);

/// sum_i weights[i] * views[i]. All views must share shape; the result's
/// sparsity pattern is the union of the inputs'.
CsrMatrix WeightedSum(const std::vector<const CsrMatrix*>& views,
                      const std::vector<double>& weights);

/// Principal submatrix M[keep, keep]; `keep` must be sorted ascending.
CsrMatrix SymmetricSubmatrix(const CsrMatrix& m,
                             const std::vector<int64_t>& keep);

/// Densifies (small matrices only; used by tests and tiny fallbacks).
DenseMatrix ToDense(const CsrMatrix& m);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_SPARSE_H_
