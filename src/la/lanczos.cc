#include "la/lanczos.h"

#include <algorithm>
#include <cmath>

#include "la/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace la {
namespace {

constexpr int64_t kDenseFallbackThreshold = 96;

/// Elements per chunk for the length-n panel updates below. Every element is
/// written by exactly one chunk with the same arithmetic as the serial loop,
/// so these stay bit-identical to a serial run at any thread count. The
/// Gram–Schmidt sweep stays serial: its dots are reductions, and chunking
/// them would reorder the summation and change the trajectory.
constexpr int64_t kElementGrain = 8192;

Status DenseSmallestInto(const CsrMatrix& matrix, int k,
                         LanczosWorkspace* ws, Eigenpairs* out) {
  // Densify into workspace scratch (same accumulation as la::ToDense).
  DenseMatrix& dense = ws->dense_scratch;
  dense.Reshape(matrix.rows, matrix.cols);
  for (int64_t r = 0; r < matrix.rows; ++r) {
    const int64_t end = matrix.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = matrix.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      dense(r, matrix.col_idx[static_cast<size_t>(p)]) +=
          matrix.values[static_cast<size_t>(p)];
    }
  }
  // Symmetrize defensively: callers promise symmetry but cached/loaded
  // matrices may carry 1-ulp asymmetry that Jacobi would amplify.
  DenseMatrix& sym = ws->dense_sym;
  sym.Reshape(dense.rows(), dense.cols());
  for (int64_t i = 0; i < dense.rows(); ++i) {
    for (int64_t j = 0; j < dense.cols(); ++j) {
      sym(i, j) = 0.5 * (dense(i, j) + dense(j, i));
    }
  }
  JacobiEigenSymmetric(sym, &ws->ritz_values, &ws->ritz_vectors, &ws->jacobi);
  out->values.assign(static_cast<size_t>(k), 0.0);
  out->vectors.Reshape(matrix.rows, k);
  for (int j = 0; j < k; ++j) {
    out->values[static_cast<size_t>(j)] =
        ws->ritz_values[static_cast<size_t>(j)];
    for (int64_t i = 0; i < matrix.rows; ++i) {
      out->vectors(i, j) = ws->ritz_vectors(i, j);
    }
  }
  return OkStatus();
}

/// One Lanczos sweep on B = sigma I - M with full reorthogonalization,
/// deflated against the locked bank rows [0, num_locked) (every Krylov
/// vector is kept orthogonal to the already-converged eigenvectors). Writes
/// up to `want` Ritz pairs — ascending in M, with exact residuals — into
/// bank rows [pass_base, pass_base + produced) and reports `produced`.
/// `built_out` reports the basis vectors built (the solve's iteration
/// count). A Rayleigh-Ritz step that fails to converge returns kInternal.
Status LanczosPassInto(const SpmvOperator& matrix, double sigma, int m,
                       int want, int num_locked, int pass_base, Rng* rng,
                       LanczosWorkspace* ws, int* produced_out,
                       int* built_out) {
  const int64_t n = matrix.rows;
  *produced_out = 0;
  *built_out = 0;

  DenseMatrix& basis = ws->basis;  // row-per-basis-vector, contiguous axpys
  basis.Reshape(m, n);
  Vector& alpha = ws->alpha;
  Vector& beta = ws->beta;  // beta[j] couples v_j, v_{j+1}
  alpha.assign(static_cast<size_t>(m), 0.0);
  beta.assign(static_cast<size_t>(m), 0.0);

  // Two modified Gram–Schmidt passes of x against the locked bank rows
  // [0, num_locked), then basis rows [0, upto). Each step takes
  // proj = dot(x, row) and x -= proj * row; axpy_dot fuses one row's axpy
  // with the next row's dot into a single sweep over x, with exactly the
  // bits of the separate kernels.
  const simd::KernelTable* table = simd::ActiveTable();
  auto deflate = [&](double* x, int upto) {
    const int rows = num_locked + upto;
    if (rows == 0) return;
    const auto row = [&](int r) -> const double* {
      return r < num_locked ? ws->bank.Row(r) : basis.Row(r - num_locked);
    };
    double proj = table->dot(x, row(0), n);
    for (int step = 0; step + 1 < 2 * rows; ++step) {
      proj = table->axpy_dot(-proj, row(step % rows), x,
                             row((step + 1) % rows), n);
    }
    table->axpy(-proj, row(rows - 1), x, n);
  };

  Vector& v = ws->v;
  v.assign(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = rng->Gaussian();
  deflate(v.data(), 0);
  {
    const double norm = Norm2(v.data(), n);
    // The locked set spans everything reachable.
    if (norm < 1e-12) return OkStatus();
    Scale(1.0 / norm, v.data(), n);
  }
  std::copy(v.begin(), v.end(), basis.Row(0));

  Vector& w = ws->w;
  w.assign(static_cast<size_t>(n), 0.0);
  int built = 0;
  for (int j = 0; j < m; ++j) {
    built = j + 1;
    // w = B v_j = sigma v_j - M v_j. The sigma_sub kernel is element-wise
    // (separate multiply and subtract roundings in every ISA variant), so
    // this combine is bit-identical across ISA paths and chunkings.
    matrix.apply(matrix.ctx, matrix.values, basis.Row(j), w.data());
    const double* vj = basis.Row(j);
    const auto combine = [sigma, vj, &w, table](int64_t lo, int64_t hi) {
      table->sigma_sub(sigma, vj + lo, w.data() + lo, hi - lo);
    };
    if (n <= kElementGrain) {
      combine(0, n);
    } else {
      util::ThreadPool::Global().ParallelFor(0, n, kElementGrain, combine);
    }
    alpha[static_cast<size_t>(j)] = Dot(w.data(), basis.Row(j), n);
    deflate(w.data(), j + 1);
    const double norm = Norm2(w.data(), n);
    if (j + 1 < m) {
      if (norm < 1e-12) {
        // Invariant subspace found: restart with a fresh random direction.
        for (int64_t i = 0; i < n; ++i) {
          w[static_cast<size_t>(i)] = rng->Gaussian();
        }
        deflate(w.data(), j + 1);
        const double rnorm = Norm2(w.data(), n);
        if (rnorm < 1e-12) break;  // reachable space exhausted
        Scale(1.0 / rnorm, w.data(), n);
        beta[static_cast<size_t>(j)] = 0.0;
      } else {
        Scale(1.0 / norm, w.data(), n);
        beta[static_cast<size_t>(j)] = norm;
      }
      std::copy(w.begin(), w.end(), basis.Row(j + 1));
    }
  }

  *built_out = built;

  // Rayleigh-Ritz on the tridiagonal.
  Status solved =
      TridiagonalEigenInto(alpha.data(), beta.data(), built, &ws->tridiagonal,
                           &ws->ritz_values, &ws->ritz_vectors);
  if (!solved.ok()) return solved;

  // Largest of B == smallest of M; they sit at the end of the ascending list.
  int produced = 0;
  const int count = std::min(want, built);
  Vector& mv = ws->mv;
  mv.assign(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < count; ++j) {
    const int src = built - 1 - j;
    const double value =
        sigma - ws->ritz_values[static_cast<size_t>(src)];
    // Ritz assembly is a dense GEMV panel basis^T * y: per element the basis
    // rows are accumulated in ascending t order, matching the serial axpys.
    double* assembled = ws->bank.Row(pass_base + produced);
    std::fill(assembled, assembled + n, 0.0);
    const DenseMatrix& ritz_vectors = ws->ritz_vectors;
    const auto assemble = [built, src, &ritz_vectors, &basis,
                           assembled](int64_t lo, int64_t hi) {
      for (int t = 0; t < built; ++t) {
        const double coef = ritz_vectors(t, src);
        const double* row = basis.Row(t);
        // Element-wise axpy panel: same bits on every ISA path.
        Axpy(coef, row + lo, assembled + lo, hi - lo);
      }
    };
    if (n <= kElementGrain) {
      assemble(0, n);
    } else {
      util::ThreadPool::Global().ParallelFor(0, n, kElementGrain, assemble);
    }
    const double vnorm = Norm2(assembled, n);
    if (vnorm < 1e-12) continue;  // row is re-zeroed for the next candidate
    Scale(1.0 / vnorm, assembled, n);
    matrix.apply(matrix.ctx, matrix.values, assembled, mv.data());
    Axpy(-value, assembled, mv.data(), n);
    ws->bank_value[static_cast<size_t>(pass_base + produced)] = value;
    ws->bank_residual[static_cast<size_t>(pass_base + produced)] =
        Norm2(mv.data(), n);
    ++produced;
  }
  *produced_out = produced;
  return OkStatus();
}

void CsrApply(const void* ctx, const double*, const double* x, double* y) {
  Spmv(*static_cast<const CsrMatrix*>(ctx), x, y);
}

void SellApply(const void* ctx, const double* values, const double* x,
               double* y) {
  SellSpmv(*static_cast<const SellMatrix*>(ctx), values, x, y);
}

}  // namespace

SpmvOperator CsrSpmvOperator(const CsrMatrix& m) {
  SpmvOperator op;
  op.rows = m.rows;
  op.apply = &CsrApply;
  op.ctx = &m;
  return op;
}

SpmvOperator SellSpmvOperator(const SellMatrix& layout,
                              const double* values) {
  SpmvOperator op;
  op.rows = layout.rows;
  op.apply = &SellApply;
  op.ctx = &layout;
  op.values = values;
  return op;
}

bool UsesDenseFallback(int64_t n, int k) {
  return n <= kDenseFallbackThreshold || k >= n - 2;
}

Result<Eigenpairs> SmallestEigenpairs(const CsrMatrix& matrix, int k,
                                      double spectrum_upper_bound,
                                      const LanczosOptions& options) {
  LanczosWorkspace workspace;
  Eigenpairs out;
  Status status = SmallestEigenpairsInto(matrix, k, spectrum_upper_bound,
                                         options, &workspace, &out);
  if (!status.ok()) return status;
  return out;
}

Status SmallestEigenpairsInto(const CsrMatrix& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* ws, Eigenpairs* out,
                              LanczosStats* stats) {
  const int64_t n = matrix.rows;
  if (matrix.cols != n) return InvalidArgument("matrix must be square");
  if (k <= 0) return InvalidArgument("k must be positive");
  if (k > n) return InvalidArgument("k exceeds matrix dimension");
  if (UsesDenseFallback(n, k)) {
    if (stats != nullptr) *stats = LanczosStats();
    return DenseSmallestInto(matrix, k, ws, out);
  }
  return SmallestEigenpairsInto(CsrSpmvOperator(matrix), k,
                                spectrum_upper_bound, options, ws, out, stats);
}

Status SmallestEigenpairsInto(const SpmvOperator& matrix, int k,
                              double spectrum_upper_bound,
                              const LanczosOptions& options,
                              LanczosWorkspace* ws, Eigenpairs* out,
                              LanczosStats* stats) {
  const int64_t n = matrix.rows;
  if (stats != nullptr) *stats = LanczosStats();
  if (matrix.apply == nullptr) return InvalidArgument("operator has no apply");
  if (k <= 0) return InvalidArgument("k must be positive");
  if (k > n) return InvalidArgument("k exceeds matrix dimension");
  if (UsesDenseFallback(n, k)) {
    return InvalidArgument(
        "operator-form Lanczos cannot densify: matrix too small or k too "
        "close to n (materialize a CsrMatrix for the dense fallback)");
  }

  const double sigma = spectrum_upper_bound;
  int m = options.max_subspace > 0
              ? options.max_subspace
              : static_cast<int>(std::min<int64_t>(n, std::max(2 * k + 24, 48)));
  m = static_cast<int>(std::min<int64_t>(m, n));
  if (m < k + 2) m = static_cast<int>(std::min<int64_t>(k + 2, n));

  // Bank layout: rows [0, k) are the locked region; two pass regions of
  // k + 1 rows alternate above it so the leftovers of pass t stay intact
  // through an unproductive pass t + 1. Shape is only *ensured* here — rows
  // are fully (re)written before every read — so a reused workspace never
  // re-zeroes or reallocates the bank.
  const int bank_rows = 3 * k + 2;
  if (ws->bank.rows() < bank_rows || ws->bank.cols() != n) {
    ws->bank.Reshape(bank_rows, n);
  }
  if (static_cast<int>(ws->bank_value.size()) < bank_rows) {
    ws->bank_value.assign(static_cast<size_t>(bank_rows), 0.0);
    ws->bank_residual.assign(static_cast<size_t>(bank_rows), 0.0);
  }

  // Single-vector Lanczos sees at most one direction per eigenvalue, so
  // repeated eigenvalues (disconnected Laplacians!) need deflated restarts:
  // converged pairs are locked, and the next pass explores their orthogonal
  // complement until k pairs are resolved.
  const double tolerance =
      std::max(options.tolerance, 1e-12) * std::max(1.0, std::fabs(sigma));
  Rng rng(options.seed);

  int num_locked = 0;                          // bank rows [0, num_locked)
  std::vector<int>& leftovers = ws->leftovers;  // best unconverged, final pass
  leftovers.clear();
  const int max_passes = 3;
  for (int pass = 0; pass < max_passes && num_locked < k; ++pass) {
    const int missing = k - num_locked;
    const int pass_base = k + (pass % 2) * (k + 1);
    int produced = 0;
    int built = 0;
    Status pass_status =
        LanczosPassInto(matrix, sigma, m, missing + 1, num_locked, pass_base,
                        &rng, ws, &produced, &built);
    if (!pass_status.ok()) return pass_status;
    if (stats != nullptr) {
      stats->iterations += built;
      ++stats->passes;
    }
    if (produced == 0) break;
    bool locked_any = false;
    leftovers.clear();
    for (int p = 0; p < produced; ++p) {
      const int row = pass_base + p;
      if (num_locked < k &&
          ws->bank_residual[static_cast<size_t>(row)] <= tolerance) {
        std::copy(ws->bank.Row(row), ws->bank.Row(row) + n,
                  ws->bank.Row(num_locked));
        ws->bank_value[static_cast<size_t>(num_locked)] =
            ws->bank_value[static_cast<size_t>(row)];
        ws->bank_residual[static_cast<size_t>(num_locked)] =
            ws->bank_residual[static_cast<size_t>(row)];
        ++num_locked;
        locked_any = true;
      } else {
        leftovers.push_back(row);
      }
    }
    // A pair that refuses to lock after a full m-step pass (spectral-bulk
    // tail) stops the solve, which then serves the best leftover
    // approximations — the documented early-exit design.
    if (!locked_any) break;  // no further progress at this subspace size
  }

  // Fill any remaining slots with the best unconverged approximations.
  std::vector<int>& selected = ws->selected;
  selected.clear();
  for (int l = 0; l < num_locked; ++l) selected.push_back(l);
  for (int row : leftovers) {
    if (static_cast<int>(selected.size()) >= k) break;
    selected.push_back(row);
  }
  if (static_cast<int>(selected.size()) < k) {
    return Internal("Lanczos resolved fewer than k eigenpairs");
  }

  std::sort(selected.begin(), selected.end(), [ws](int a, int b) {
    return ws->bank_value[static_cast<size_t>(a)] <
           ws->bank_value[static_cast<size_t>(b)];
  });
  out->values.assign(static_cast<size_t>(k), 0.0);
  out->vectors.Reshape(n, k);
  for (int j = 0; j < k; ++j) {
    const int row = selected[static_cast<size_t>(j)];
    out->values[static_cast<size_t>(j)] =
        ws->bank_value[static_cast<size_t>(row)];
    const double* src = ws->bank.Row(row);
    for (int64_t i = 0; i < n; ++i) {
      out->vectors(i, j) = src[static_cast<size_t>(i)];
    }
  }
  return OkStatus();
}

}  // namespace la
}  // namespace sgla
