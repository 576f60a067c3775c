#include "embed/netmf.h"

#include <algorithm>
#include <cmath>

#include "la/lanczos.h"

namespace sgla {
namespace embed {
namespace {

constexpr int kWindow = 10;        // context window T of the DeepWalk matrix
constexpr double kNegative = 1.0;  // negative-sampling constant b

}  // namespace

Result<la::DenseMatrix> NetMf(const la::CsrMatrix& laplacian,
                              const NetMfOptions& options) {
  const int64_t n = laplacian.rows;
  if (options.dim < 1) return InvalidArgument("NetMF dim must be positive");
  if (n < options.dim + 2) {
    return InvalidArgument("NetMF: graph smaller than embedding dim");
  }
  // The dim+1 smallest Laplacian eigenpairs are the dim+1 largest of the
  // normalized adjacency; the first (mu ~= 1, the constant-ish direction)
  // carries no cluster signal and is dropped.
  const int want = options.dim + 1;
  auto eigen = la::SmallestEigenpairs(laplacian, want, 2.0);
  if (!eigen.ok()) return eigen.status();

  la::DenseMatrix embedding(n, options.dim);
  for (int j = 0; j < options.dim; ++j) {
    const double lambda = eigen->values[static_cast<size_t>(j) + 1];
    const double mu = 1.0 - lambda;
    // Window filter: average of mu^p over p = 1..T.
    double filtered = 0.0;
    double power = 1.0;
    for (int p = 1; p <= kWindow; ++p) {
      power *= mu;
      filtered += power;
    }
    filtered /= static_cast<double>(kWindow);
    // Truncated log of the shifted PMI spectrum; clipped below at 0.
    const double value = std::log1p(std::max(0.0, filtered) *
                                    static_cast<double>(n) / kNegative);
    const double scale = std::sqrt(std::max(0.0, value));
    for (int64_t i = 0; i < n; ++i) {
      embedding(i, j) = eigen->vectors(i, j + 1) * scale;
    }
  }
  return embedding;
}

}  // namespace embed
}  // namespace sgla
