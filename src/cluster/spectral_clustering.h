#ifndef SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_
#define SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "la/dense.h"
#include "la/lanczos.h"
#include "la/sparse.h"
#include "util/status.h"

namespace sgla {
namespace cluster {

/// Reusable scratch for SpectralClusteringInto: the embedding eigensolve
/// buffers and the k-means scratch. One warm workspace makes repeated
/// clustering calls at a fixed problem size allocation-free except for the
/// caller-owned outputs.
struct SpectralWorkspace {
  la::LanczosWorkspace lanczos;
  la::Eigenpairs eigen;       ///< holds the (row-normalized) embedding
  KMeansWorkspace kmeans;
  KMeansResult kmeans_result;
};

/// Row-normalized matrix of the k smallest Laplacian eigenvectors — the
/// standard NJW spectral embedding used by both clustering backends, and
/// the embedding step SpectralClusteringInto runs. `laplacian` must be a
/// (convex combination of) normalized Laplacian(s): the eigensolve assumes
/// its spectrum lies in [0, 2].
Result<la::DenseMatrix> SpectralEmbeddingForClustering(
    const la::CsrMatrix& laplacian, int k);

/// NJW spectral clustering: spectral embedding + k-means. A thin wrapper
/// over SpectralClusteringInto with a fresh workspace.
Result<std::vector<int32_t>> SpectralClustering(
    const la::CsrMatrix& laplacian, int k, const KMeansOptions& kmeans = {});

/// Workspace form of SpectralClustering: bit-identical labels, with all
/// scratch in `workspace` and the labels assign-reused in `out`.
///
/// The sixth, seventh and eighth parameters are retired slots (row shards,
/// a warm-start seed and a Ritz-vector out-param): they only accept nullptr
/// and are ignored, so existing nine-argument callers keep compiling.
/// `stats` exposes the embedding eigensolve's iteration counts.
Status SpectralClusteringInto(const la::CsrMatrix& laplacian, int k,
                              const KMeansOptions& kmeans,
                              SpectralWorkspace* workspace,
                              std::vector<int32_t>* out,
                              std::nullptr_t retired_shards = nullptr,
                              std::nullptr_t retired_warm_start = nullptr,
                              std::nullptr_t retired_ritz_out = nullptr,
                              la::LanczosStats* stats = nullptr);

}  // namespace cluster
}  // namespace sgla

#endif  // SGLA_CLUSTER_SPECTRAL_CLUSTERING_H_
