#ifndef SGLA_EMBED_NETMF_H_
#define SGLA_EMBED_NETMF_H_

#include "la/dense.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace embed {

struct NetMfOptions {
  int dim = 64;
};

/// Spectral NetMF over an integrated normalized Laplacian L: recovers the
/// normalized adjacency spectrum (mu = 1 - lambda), applies the window
/// filter f(mu) = avg_{p<=T} mu^p with context window T = 10 and the
/// truncated-log transform with negative-sampling constant b = 1, and
/// returns the filtered eigenbasis as the embedding (n x dim). This is the
/// eigen-space variant of NetMF's small-graph path, matching the paper's use
/// of the integrated Laplacian's spectrum directly.
Result<la::DenseMatrix> NetMf(const la::CsrMatrix& laplacian,
                              const NetMfOptions& options = {});

}  // namespace embed
}  // namespace sgla

#endif  // SGLA_EMBED_NETMF_H_
