#ifndef SGLA_LA_LANCZOS_H_
#define SGLA_LA_LANCZOS_H_

#include <vector>

#include "la/dense.h"
#include "la/eigen_sym.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace la {

struct Eigenpairs {
  Vector values;        ///< ascending, size k
  DenseMatrix vectors;  ///< n x k, columns match values
};

struct LanczosOptions {
  int max_subspace = 0;        ///< 0 = auto (min(n, max(2k + 24, 48)))
  double tolerance = 1e-8;     ///< Ritz-residual early exit (relative)
  uint64_t seed = 20250131;    ///< deterministic start vector
};

/// Per-solve instrumentation, filled when a `stats` out-param is passed.
struct LanczosStats {
  int iterations = 0;  ///< Lanczos basis vectors built across all passes
  int passes = 0;      ///< restart passes run (0 on the dense fallback)
};

/// Reusable scratch for SmallestEigenpairsInto: Krylov basis and panel
/// buffers, the Rayleigh-Ritz QL scratch, and a bank of candidate/locked
/// Ritz vectors. A default-constructed workspace grows on first use;
/// afterwards repeated solves at the same (n, k, subspace) —
/// e.g. the per-evaluation eigensolve of the SGLA weight search — perform
/// zero heap allocations. Contents carry no state between calls beyond
/// capacity; any call fully re-initializes what it reads.
struct LanczosWorkspace {
  DenseMatrix basis;       ///< m x n, row per Krylov vector
  Vector alpha, beta;      ///< tridiagonal entries, size m
  Vector v, w, mv;         ///< length-n iteration / residual vectors
  Vector ritz_values;      ///< Rayleigh-Ritz (or dense fallback) outputs
  DenseMatrix ritz_vectors;
  TridiagonalWorkspace tridiagonal;
  JacobiWorkspace jacobi;  ///< dense fallback only
  /// Ritz-vector bank, one row per vector: rows [0, k) hold locked
  /// (converged) vectors in locking order; rows [k, 3k+2) hold the current
  /// and previous pass's candidates in two alternating regions of k+1 rows,
  /// so leftovers of pass t survive an unproductive pass t+1.
  DenseMatrix bank;
  Vector bank_value;       ///< Ritz value per bank row
  Vector bank_residual;    ///< exact residual per bank row
  std::vector<int> leftovers;  ///< pass-region rows not locked (best first)
  std::vector<int> selected;   ///< final k bank rows, ascending by value
  DenseMatrix dense_scratch;   ///< dense fallback: densified matrix
  DenseMatrix dense_sym;       ///< dense fallback: symmetrized copy
};

/// Matrix-free symmetric operator: apply(ctx, values, x, y) must overwrite
/// all `rows` entries of y with M x (x is full-length, size rows) and must
/// be deterministic — the Lanczos trajectory reproduces bit for bit only if
/// every application does. `values` is a second context pointer for
/// operators whose entries live apart from their pattern. CSR and SELL
/// matrices wrap themselves via CsrSpmvOperator() and SellSpmvOperator().
struct SpmvOperator {
  int64_t rows = 0;
  void (*apply)(const void* ctx, const double* values, const double* x,
                double* y) = nullptr;
  const void* ctx = nullptr;
  const double* values = nullptr;
};

/// Wraps `m` (which must outlive the operator) for the operator-form solver.
SpmvOperator CsrSpmvOperator(const CsrMatrix& m);

/// Wraps a SELL-C-σ layout and a value array in its slot order (see
/// la::SellMatrix and the SellSpmv overload that takes values; both must
/// outlive the operator). Under SGLA_ISA=scalar the application is
/// bit-identical to CsrSpmvOperator on the source CSR; vector ISAs run the
/// padded slice kernel.
SpmvOperator SellSpmvOperator(const SellMatrix& layout, const double* values);

/// True when the CSR form below takes the dense Jacobi fallback (tiny matrix
/// or nearly full spectrum requested) instead of running Lanczos. The
/// operator form cannot densify a matrix-free operator and rejects such
/// inputs; callers that might hit the fallback sizes must materialize a CSR.
bool UsesDenseFallback(int64_t n, int k);

/// The k algebraically smallest eigenpairs of a symmetric matrix, via Lanczos
/// with full reorthogonalization on the spectral complement
/// B = spectrum_upper_bound * I - M (so the target pairs become extremal).
/// For normalized Laplacians, spectrum_upper_bound = 2 is a valid bound.
/// Small matrices fall back to a dense Jacobi solve.
Result<Eigenpairs> SmallestEigenpairs(const CsrMatrix& matrix, int k,
                                      double spectrum_upper_bound,
                                      const LanczosOptions& options = {});

/// Workspace form of SmallestEigenpairs: bit-identical results, but all
/// scratch lives in `workspace` and the outputs reuse `out`'s buffers, so
/// steady-state calls at a fixed problem size are allocation-free. The
/// convenience overload above is a thin wrapper over this. A Rayleigh-Ritz
/// tridiagonal that fails to converge (see TridiagonalEigenInto) returns
/// kInternal rather than unconverged pairs.
Status SmallestEigenpairsInto(const CsrMatrix& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* workspace, Eigenpairs* out,
                              LanczosStats* stats = nullptr);

/// Operator form: identical Lanczos iteration with every matrix application
/// routed through `op` — the CSR form above delegates here outside its dense
/// fallback, so a CSR wrapped in CsrSpmvOperator produces the same bits.
/// Fails with InvalidArgument when UsesDenseFallback(op.rows, k).
Status SmallestEigenpairsInto(const SpmvOperator& op, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* workspace, Eigenpairs* out,
                              LanczosStats* stats = nullptr);

}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_LANCZOS_H_
