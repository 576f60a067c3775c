#include "la/dense.h"

#include <algorithm>
#include <cmath>

#include "la/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace la {

// The BLAS-1 hot kernels dispatch through the runtime-selected ISA table
// (la/simd.h). Axpy and Scale are element-wise and bit-identical across
// every ISA path; Dot and SquaredDistance are reductions whose bits are a
// fixed function of the operands within one ISA (scalar keeps the
// historical serial-sum bits exactly).

double Dot(const double* x, const double* y, int64_t n) {
  return simd::ActiveTable()->dot(x, y, n);
}

double Norm2(const double* x, int64_t n) { return std::sqrt(Dot(x, x, n)); }

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  simd::ActiveTable()->axpy(alpha, x, y, n);
}

void Scale(double alpha, double* x, int64_t n) {
  simd::ActiveTable()->scale(alpha, x, n);
}

double SquaredDistance(const double* x, const double* y, int64_t n) {
  return simd::ActiveTable()->squared_distance(x, y, n);
}

DenseMatrix MatMul(const DenseMatrix& a, const DenseMatrix& b) {
  SGLA_CHECK(a.cols() == b.rows()) << "MatMul shape mismatch";
  DenseMatrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.Row(k);
      double* orow = out.Row(i);
      for (int64_t j = 0; j < b.cols(); ++j) orow[j] += aik * brow[j];
    }
  }
  return out;
}

DenseMatrix MatTMul(const DenseMatrix& a, const DenseMatrix& b) {
  SGLA_CHECK(a.rows() == b.rows()) << "MatTMul shape mismatch";
  DenseMatrix out(a.cols(), b.cols());
  for (int64_t k = 0; k < a.rows(); ++k) {
    const double* arow = a.Row(k);
    const double* brow = b.Row(k);
    for (int64_t i = 0; i < a.cols(); ++i) {
      const double aki = arow[i];
      if (aki == 0.0) continue;
      double* orow = out.Row(i);
      for (int64_t j = 0; j < b.cols(); ++j) orow[j] += aki * brow[j];
    }
  }
  return out;
}

DenseMatrix HConcat(const std::vector<const DenseMatrix*>& blocks) {
  SGLA_CHECK(!blocks.empty()) << "HConcat of zero blocks";
  const int64_t rows = blocks[0]->rows();
  int64_t cols = 0;
  for (const DenseMatrix* b : blocks) {
    SGLA_CHECK(b->rows() == rows) << "HConcat row mismatch";
    cols += b->cols();
  }
  DenseMatrix out(rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    double* orow = out.Row(i);
    int64_t offset = 0;
    for (const DenseMatrix* b : blocks) {
      const double* brow = b->Row(i);
      for (int64_t j = 0; j < b->cols(); ++j) orow[offset + j] = brow[j];
      offset += b->cols();
    }
  }
  return out;
}

Vector SolveRidgedSystem(DenseMatrix a, Vector b, double ridge) {
  const int n = static_cast<int>(b.size());
  SGLA_CHECK(a.rows() == n && a.cols() == n)
      << "SolveRidgedSystem shape mismatch";
  for (int i = 0; i < n; ++i) a(i, i) += ridge;
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(pivot, col))) pivot = r;
    }
    for (int c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
    std::swap(b[static_cast<size_t>(col)], b[static_cast<size_t>(pivot)]);
    const double diag = a(col, col);
    if (std::fabs(diag) < 1e-30) continue;
    for (int r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / diag;
      for (int c = col; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[static_cast<size_t>(r)] -= factor * b[static_cast<size_t>(col)];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double sum = b[static_cast<size_t>(r)];
    for (int c = r + 1; c < n; ++c) sum -= a(r, c) * b[static_cast<size_t>(c)];
    b[static_cast<size_t>(r)] = std::fabs(a(r, r)) < 1e-30 ? 0.0 : sum / a(r, r);
  }
  return b;
}

bool ShapeHolds(int64_t rows, int64_t cols, uint64_t size) {
  if (rows < 0 || cols < 0) return false;
  if (rows == 0 || cols == 0) return size == 0;
  const uint64_t r = static_cast<uint64_t>(rows);
  return size % r == 0 && size / r == static_cast<uint64_t>(cols);
}

void NormalizeRows(DenseMatrix* m) {
  for (int64_t i = 0; i < m->rows(); ++i) {
    double* row = m->Row(i);
    const double norm = Norm2(row, m->cols());
    if (norm > 1e-300) Scale(1.0 / norm, row, m->cols());
  }
}

void ProlongateRows(const DenseMatrix& src, const std::vector<int64_t>& map,
                    DenseMatrix* out) {
  const int64_t rows = static_cast<int64_t>(map.size());
  const int64_t cols = src.cols();
  out->Reshape(rows, cols);
  util::ThreadPool::Global().ParallelFor(
      0, rows, 512, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const double* srow = src.Row(map[i]);
          std::copy(srow, srow + cols, out->Row(i));
        }
      });
}

}  // namespace la
}  // namespace sgla
