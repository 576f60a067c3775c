#ifndef SGLA_LA_DENSE_H_
#define SGLA_LA_DENSE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgla {
namespace la {

/// Dense double vector. Plain std::vector so it interoperates with brace
/// initializers and the STL; dot products etc. live as free functions.
using Vector = std::vector<double>;

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {}

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  double& operator()(int64_t row, int64_t col) {
    return data_[static_cast<size_t>(row * cols_ + col)];
  }
  double operator()(int64_t row, int64_t col) const {
    return data_[static_cast<size_t>(row * cols_ + col)];
  }

  double* Row(int64_t row) { return data_.data() + row * cols_; }
  const double* Row(int64_t row) const { return data_.data() + row * cols_; }

  /// Re-shapes in place to rows x cols and zero-fills, reusing the existing
  /// allocation whenever capacity suffices. Workspace buffers rely on this:
  /// a steady-state Reshape to the same (or a smaller) shape never touches
  /// the heap, while producing exactly the bits of a fresh DenseMatrix.
  void Reshape(int64_t rows, int64_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows * cols), 0.0);
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double> data_;
};

double Dot(const double* x, const double* y, int64_t n);
double Norm2(const double* x, int64_t n);
/// y += alpha * x
void Axpy(double alpha, const double* x, double* y, int64_t n);
void Scale(double alpha, double* x, int64_t n);

/// Squared Euclidean distance between two length-n rows.
double SquaredDistance(const double* x, const double* y, int64_t n);
/// out[j] = SquaredDistance(point, rows + j*d, d) for j in [0, count), bit
/// for bit, in one dispatched call over `count` contiguous length-d rows.
void SquaredDistances(const double* point, const double* rows, int64_t count,
                      int64_t d, double* out);

/// out = A * B (naive triple loop; fine for the small/medium shapes here).
DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b);
/// out = A^T * B
DenseMatrix MatTMul(const DenseMatrix& a, const DenseMatrix& b);

/// Horizontal concatenation [a | b ...]; all blocks must share rows().
DenseMatrix HConcat(const std::vector<const DenseMatrix*>& blocks);

/// Normalizes every row to unit L2 norm (zero rows stay zero).
void NormalizeRows(DenseMatrix* m);

/// Row-gather prolongation: reshapes `out` to map.size() x src.cols() and
/// copies out.Row(i) = src.Row(map[i]). The serving layer's fast tier lifts
/// coarse-graph embeddings and Ritz vectors back to fine rows with this.
/// Chunked ParallelFor over fixed row windows; a pure element-wise copy, so
/// the result is bit-identical at any thread count and on every ISA path.
/// Steady-state calls at a fixed shape are allocation-free (Reshape reuses
/// capacity).
void ProlongateRows(const DenseMatrix& src, const std::vector<int64_t>& map,
                    DenseMatrix* out);

/// True iff a rows x cols matrix holds exactly `size` entries: both
/// dimensions non-negative and rows * cols == size. Decided by division, so
/// a hostile shape whose product wraps (rows = 512, cols = 2^55, size = 0)
/// is rejected instead of passing as an empty matrix. Every decoder that
/// reads a dense block's shape next to its data checks it here.
bool ShapeHolds(int64_t rows, int64_t cols, uint64_t size);

/// Solves (A + ridge I) x = b for small dense A by Gaussian elimination with
/// partial pivoting. Near-singular pivots yield zero components rather than
/// NaNs — callers use this for least-squares normal equations where the
/// ridge keeps the system well posed.
Vector SolveRidgedSystem(DenseMatrix a, Vector b, double ridge);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_DENSE_H_
