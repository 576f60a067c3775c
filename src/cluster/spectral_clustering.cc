#include "cluster/spectral_clustering.h"

#include <utility>

#include "la/lanczos.h"

namespace sgla {
namespace cluster {
namespace {

// The NJW embedding step: the k smallest eigenvectors of `laplacian`, rows
// normalized, left in workspace->eigen.vectors. 2 bounds the spectrum of
// (convex combinations of) normalized Laplacians, as the Lanczos complement
// shift needs.
Status EmbedInto(const la::CsrMatrix& laplacian, int k,
                 SpectralWorkspace* workspace, la::LanczosStats* stats) {
  if (k < 1) return InvalidArgument("spectral embedding needs k >= 1");
  Status solved = la::SmallestEigenpairsInto(
      laplacian, k, 2.0, la::LanczosOptions(), &workspace->lanczos,
      &workspace->eigen, stats);
  if (!solved.ok()) return solved;
  la::NormalizeRows(&workspace->eigen.vectors);
  return OkStatus();
}

}  // namespace

Result<la::DenseMatrix> SpectralEmbeddingForClustering(
    const la::CsrMatrix& laplacian, int k) {
  SpectralWorkspace workspace;
  Status embedded = EmbedInto(laplacian, k, &workspace, nullptr);
  if (!embedded.ok()) return embedded;
  return std::move(workspace.eigen.vectors);
}

Result<std::vector<int32_t>> SpectralClustering(const la::CsrMatrix& laplacian,
                                                int k,
                                                const KMeansOptions& kmeans) {
  SpectralWorkspace workspace;
  std::vector<int32_t> labels;
  Status clustered =
      SpectralClusteringInto(laplacian, k, kmeans, &workspace, &labels);
  if (!clustered.ok()) return clustered;
  return labels;
}

Status SpectralClusteringInto(const la::CsrMatrix& laplacian, int k,
                              const KMeansOptions& kmeans,
                              SpectralWorkspace* workspace,
                              std::vector<int32_t>* out, std::nullptr_t,
                              std::nullptr_t, std::nullptr_t,
                              la::LanczosStats* stats) {
  Status embedded = EmbedInto(laplacian, k, workspace, stats);
  if (!embedded.ok()) return embedded;
  KMeansInto(workspace->eigen.vectors, k, kmeans, &workspace->kmeans,
             &workspace->kmeans_result);
  *out = workspace->kmeans_result.labels;  // assign-reuses out's capacity
  return OkStatus();
}

}  // namespace cluster
}  // namespace sgla
