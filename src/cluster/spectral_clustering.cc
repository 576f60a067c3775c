#include "cluster/spectral_clustering.h"

#include "la/lanczos.h"

namespace sgla {
namespace cluster {

Result<la::DenseMatrix> SpectralEmbeddingForClustering(
    const la::CsrMatrix& laplacian, int k,
    const SpectralEmbeddingOptions& options) {
  if (k < 1) return InvalidArgument("spectral embedding needs k >= 1");
  la::LanczosOptions lanczos;
  lanczos.max_subspace = options.lanczos_subspace;
  auto eigen = la::SmallestEigenpairs(laplacian, k,
                                      options.spectrum_upper_bound, lanczos);
  if (!eigen.ok()) return eigen.status();
  la::DenseMatrix embedding = std::move(eigen->vectors);
  la::NormalizeRows(&embedding);
  return embedding;
}

Result<std::vector<int32_t>> SpectralClustering(const la::CsrMatrix& laplacian,
                                                int k,
                                                const KMeansOptions& kmeans) {
  auto embedding = SpectralEmbeddingForClustering(laplacian, k);
  if (!embedding.ok()) return embedding.status();
  return KMeans(*embedding, k, kmeans).labels;
}

Status SpectralClusteringInto(const la::CsrMatrix& laplacian, int k,
                              const KMeansOptions& kmeans,
                              SpectralWorkspace* workspace,
                              std::vector<int32_t>* out, std::nullptr_t,
                              std::nullptr_t, std::nullptr_t,
                              la::LanczosStats* stats) {
  if (k < 1) return InvalidArgument("spectral embedding needs k >= 1");
  la::LanczosOptions lanczos;  // defaults match SpectralEmbeddingOptions
  Status solved = la::SmallestEigenpairsInto(
      laplacian, k, SpectralEmbeddingOptions().spectrum_upper_bound, lanczos,
      &workspace->lanczos, &workspace->eigen, stats);
  if (!solved.ok()) return solved;
  la::NormalizeRows(&workspace->eigen.vectors);
  KMeansInto(workspace->eigen.vectors, k, kmeans, &workspace->kmeans,
             &workspace->kmeans_result);
  *out = workspace->kmeans_result.labels;  // assign-reuses out's capacity
  return OkStatus();
}

}  // namespace cluster
}  // namespace sgla
