#include "la/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "la/simd.h"
#include "util/logging.h"

namespace sgla {
namespace la {
namespace {

/// sqrt(a^2 + b^2) without destructive overflow or underflow.
double Pythag(double a, double b) {
  const double abs_a = std::fabs(a);
  const double abs_b = std::fabs(b);
  if (abs_a > abs_b) {
    const double ratio = abs_b / abs_a;
    return abs_a * std::sqrt(1.0 + ratio * ratio);
  }
  if (abs_b == 0.0) return 0.0;
  const double ratio = abs_a / abs_b;
  return abs_b * std::sqrt(1.0 + ratio * ratio);
}

}  // namespace

void JacobiEigenSymmetric(const DenseMatrix& matrix, Vector* eigenvalues,
                          DenseMatrix* eigenvectors_out) {
  JacobiWorkspace workspace;
  JacobiEigenSymmetric(matrix, eigenvalues, eigenvectors_out, &workspace);
}

void JacobiEigenSymmetric(const DenseMatrix& matrix, Vector* eigenvalues,
                          DenseMatrix* eigenvectors_out,
                          JacobiWorkspace* workspace) {
  const int64_t n = matrix.rows();
  SGLA_CHECK(matrix.cols() == n) << "JacobiEigenSymmetric needs a square matrix";
  DenseMatrix& a = workspace->a;
  a = matrix;  // copy-assign reuses the buffer when capacity suffices
  DenseMatrix& v = workspace->v;
  v.Reshape(n, n);
  for (int64_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const int max_sweeps = 64;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (off < 1e-24) break;
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        const double apq = a(p, q);
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int64_t i = 0; i < n; ++i) {
          const double aip = a(i, p);
          const double aiq = a(i, q);
          a(i, p) = c * aip - s * aiq;
          a(i, q) = s * aip + c * aiq;
        }
        for (int64_t i = 0; i < n; ++i) {
          const double api = a(p, i);
          const double aqi = a(q, i);
          a(p, i) = c * api - s * aqi;
          a(q, i) = s * api + c * aqi;
        }
        for (int64_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  std::vector<int64_t>& order = workspace->order;
  order.assign(static_cast<size_t>(n), 0);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int64_t x, int64_t y) { return a(x, x) < a(y, y); });

  eigenvalues->assign(static_cast<size_t>(n), 0.0);
  eigenvectors_out->Reshape(n, n);
  for (int64_t j = 0; j < n; ++j) {
    const int64_t src = order[static_cast<size_t>(j)];
    (*eigenvalues)[static_cast<size_t>(j)] = a(src, src);
    for (int64_t i = 0; i < n; ++i) (*eigenvectors_out)(i, j) = v(i, src);
  }
}

Status TridiagonalEigenInto(const double* diag, const double* offdiag, int m,
                            TridiagonalWorkspace* workspace, Vector* values,
                            DenseMatrix* vectors) {
  SGLA_CHECK(m >= 0) << "TridiagonalEigenInto needs m >= 0";
  workspace->d.assign(diag, diag + m);
  // e[m-1] stays zero: the sentinel that ends every split search below.
  workspace->e.assign(static_cast<size_t>(m), 0.0);
  double* d = workspace->d.data();
  double* e = workspace->e.data();
  for (int i = 0; i + 1 < m; ++i) e[i] = offdiag[i];
  for (int i = 0; i < m; ++i) {
    if (!std::isfinite(d[i]) || !std::isfinite(e[i])) {
      return Internal("non-finite tridiagonal entry");
    }
  }

  // Row i of z accumulates the transpose of eigenvector column i, starting
  // from the identity.
  DenseMatrix& z = workspace->z;
  z.Reshape(m, m);
  for (int c = 0; c < m; ++c) z(c, c) = 1.0;
  // Each QL step rotates rows i and i + 1 of z through the element-wise
  // rotate kernel: the same bits on every ISA path.
  const simd::KernelTable* table = simd::ActiveTable();

  // Implicit QL with Wilkinson shifts: each sweep chases a bulge up the
  // unreduced block [l, split] and converges d[l]; negligible off-diagonals
  // split the matrix (Lanczos writes an exact zero on a breakdown restart).
  const double eps = std::numeric_limits<double>::epsilon();
  const int64_t max_iterations = 30 * static_cast<int64_t>(m);
  int64_t iterations = 0;
  for (int l = 0; l < m; ++l) {
    while (true) {
      int split = l;
      for (; split < m - 1; ++split) {
        const double dd = std::fabs(d[split]) + std::fabs(d[split + 1]);
        if (std::fabs(e[split]) <= eps * dd) break;
      }
      if (split == l) break;
      if (++iterations > max_iterations) {
        return Internal("tridiagonal QL did not converge");
      }
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = Pythag(g, 1.0);
      g = d[split] - d[l] + e[l] / (g + (g >= 0.0 ? r : -r));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      int i = split - 1;
      for (; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = Pythag(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Underflow: the block split at i + 1; deflate and sweep again.
          d[i + 1] -= p;
          e[split] = 0.0;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        table->rotate(c, s, z.Row(i), z.Row(i + 1), m);
      }
      if (r == 0.0 && i >= l) continue;
      d[l] -= p;
      e[l] = g;
      e[split] = 0.0;
    }
  }

  std::vector<int>& order = workspace->order;
  order.resize(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [d](int x, int y) {
    return d[x] < d[y] || (d[x] == d[y] && x < y);
  });

  values->resize(static_cast<size_t>(m));
  vectors->Reshape(m, m);
  for (int j = 0; j < m; ++j) {
    const int src = order[static_cast<size_t>(j)];
    (*values)[static_cast<size_t>(j)] = d[src];
    for (int k = 0; k < m; ++k) (*vectors)(k, j) = z(src, k);
  }
  return OkStatus();
}

}  // namespace la
}  // namespace sgla
