#ifndef SGLA_LA_EIGEN_SYM_H_
#define SGLA_LA_EIGEN_SYM_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"
#include "util/status.h"

namespace sgla {
namespace la {

/// Reusable scratch for JacobiEigenSymmetric. A default-constructed instance
/// grows on first use; afterwards repeated solves at the same (or smaller)
/// size perform zero heap allocations.
struct JacobiWorkspace {
  DenseMatrix a;                ///< working copy rotated in place
  DenseMatrix v;                ///< accumulated rotations
  std::vector<int64_t> order;   ///< ascending-eigenvalue permutation
};

/// Full eigendecomposition of a small dense symmetric matrix via cyclic
/// Jacobi rotations. Eigenvalues ascending; eigenvectors_out columns match.
/// Intended for genuinely dense matrices up to a few hundred rows (the
/// Lanczos dense fallback, Gram matrices, surrogate Hessians) — O(n^3) per
/// sweep over many sweeps. Tridiagonals go to TridiagonalEigenInto.
void JacobiEigenSymmetric(const DenseMatrix& matrix, Vector* eigenvalues,
                          DenseMatrix* eigenvectors_out);

/// Workspace form: identical bits, but every buffer (including the outputs,
/// which are assign/Reshape-reused) comes from `workspace` or the caller, so
/// steady-state calls are allocation-free.
void JacobiEigenSymmetric(const DenseMatrix& matrix, Vector* eigenvalues,
                          DenseMatrix* eigenvectors_out,
                          JacobiWorkspace* workspace);

/// Reusable scratch for TridiagonalEigenInto. A default-constructed instance
/// grows on first use; afterwards repeated solves at the same (or smaller)
/// size perform zero heap allocations.
struct TridiagonalWorkspace {
  Vector d;                ///< diagonal, iterated down to the eigenvalues
  Vector e;                ///< off-diagonal, iterated down to zero
  DenseMatrix z;           ///< accumulated rotations, row per eigenvector
  std::vector<int> order;  ///< ascending-eigenvalue permutation
};

/// Eigendecomposition of the m x m symmetric tridiagonal with diagonal
/// `diag[0..m)` and off-diagonal `offdiag[0..m-1)` (offdiag[i] couples rows
/// i and i+1; an exact zero splits the matrix) by implicit QL with
/// Wilkinson shifts (the tqli / LAPACK dsteqr scheme), accumulating the
/// eigenvectors: O(m^3) with a small constant.
///
/// `values` receives the eigenvalues ascending, ties broken by index.
/// `vectors` is reshaped to m x m and column j holds the unit eigenvector of
/// values[j] (JacobiEigenSymmetric's layout).
///
/// Non-finite input, or an eigenvalue that fails to converge within 30 QL
/// iterations per row on average, returns kInternal and leaves the outputs
/// unspecified.
Status TridiagonalEigenInto(const double* diag, const double* offdiag, int m,
                            TridiagonalWorkspace* workspace, Vector* values,
                            DenseMatrix* vectors);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_EIGEN_SYM_H_
