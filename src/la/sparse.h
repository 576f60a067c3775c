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
/// and column 0; ghost lanes (beyond the final row) have perm < 0.
///
/// The pattern arrays (everything except `values`) are a pure function of
/// the CSR sparsity; `values` is refreshed in place from new CSR values via
/// `value_slot`, so a bound SellMatrix rides along with the zero-allocation
/// aggregation workspaces.
struct SellMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> slice_ptr;  ///< num_slices + 1, in column steps
  std::vector<int64_t> col_idx;    ///< slice_ptr.back() * kSellLanes
  std::vector<double> values;      ///< same size as col_idx
  std::vector<int64_t> row_len;    ///< per slot: unpadded row length
  std::vector<int64_t> perm;       ///< per slot: source row, < 0 for ghosts
  std::vector<int64_t> value_slot; ///< CSR entry p -> index into values
  int64_t num_slices() const {
    return static_cast<int64_t>(slice_ptr.size()) - 1;
  }
};

/// (Re)builds `out` as the SELL form of `m`, reusing its buffers' capacity.
/// Values are copied from m along with the pattern.
void BuildSellPattern(const CsrMatrix& m, SellMatrix* out);

/// Overwrites out->values from `csr_values` (size out->value_slot.size(),
/// the source CSR's nnz) through the value_slot map. Allocation-free;
/// padding slots keep their 0.0.
void FillSellValues(const std::vector<double>& csr_values, SellMatrix* out);

/// y = M * x over the SELL form; bit-identical at any thread count, and
/// under SGLA_ISA=scalar bit-identical to Spmv on the source CSR (the
/// scalar kernel walks each row's entries in CSR order, skipping padding).
void SellSpmv(const SellMatrix& m, const double* x, double* y);

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
