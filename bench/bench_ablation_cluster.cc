// Ablation bench (DESIGN.md §6): choices downstream of the integrated
// Laplacian — k-means vs Yu-Shi discretization as the spectral clustering
// backend, and COBYLA vs Nelder-Mead as the SGLA weight optimizer — measured
// on the small/medium stand-ins.
#include <cstdio>
#include <string>

#include "cluster/discretize.h"
#include "cluster/spectral_clustering.h"
#include "common.h"
#include "core/integration.h"
#include "eval/clustering_metrics.h"
#include "util/stopwatch.h"

int main() {
  using namespace sgla;
  std::printf("=== Ablation: clustering backend and weight optimizer ===\n\n");
  std::printf("%-10s %14s %14s | %12s %12s\n", "dataset", "kmeans-Acc",
              "discretize-Acc", "COBYLA-Acc", "NelderMd-Acc");

  for (const std::string dataset : {"rm", "yelp", "imdb", "dblp"}) {
    const core::MultiViewGraph& mvag = bench::GetDataset(dataset);
    const std::vector<la::CsrMatrix>& views = bench::GetViewLaplacians(dataset);
    const int k = mvag.num_clusters();

    // Backend ablation on the SGLA+ Laplacian.
    auto integration = core::SglaPlus(views, k);
    double kmeans_acc = 0.0, discretize_acc = 0.0;
    if (integration.ok()) {
      auto kmeans_labels = cluster::SpectralClustering(integration->laplacian, k);
      if (kmeans_labels.ok()) {
        kmeans_acc = eval::ClusteringAccuracy(*kmeans_labels, mvag.labels());
      }
      auto embedding =
          cluster::SpectralEmbeddingForClustering(integration->laplacian, k);
      if (embedding.ok()) {
        auto labels = cluster::DiscretizeSpectral(*embedding);
        if (labels.ok()) {
          discretize_acc = eval::ClusteringAccuracy(*labels, mvag.labels());
        }
      }
    }

    // Optimizer ablation inside SGLA.
    auto accuracy_with = [&](core::WeightOptimizer optimizer) {
      core::SglaOptions options;
      options.optimizer = optimizer;
      auto result = core::Sgla(views, k, options);
      if (!result.ok()) return 0.0;
      auto labels = cluster::SpectralClustering(result->laplacian, k);
      return labels.ok() ? eval::ClusteringAccuracy(*labels, mvag.labels()) : 0.0;
    };
    std::printf("%-10s %14.3f %14.3f | %12.3f %12.3f\n", dataset.c_str(),
                kmeans_acc, discretize_acc,
                accuracy_with(core::WeightOptimizer::kCobyla),
                accuracy_with(core::WeightOptimizer::kNelderMead));
  }
  std::printf("\nshape check: discretization tracks k-means (both valid\n"
              "backends); COBYLA (the paper's optimizer) >= Nelder-Mead.\n");
  return 0;
}
