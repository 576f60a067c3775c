// Fig. 7: convergence of SGLA — objective h(w) and clustering accuracy as a
// function of the iteration (objective-evaluation) count t, on the Yelp and
// IMDB stand-ins. The paper shows h decreasing to a plateau while Acc rises.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/spectral_clustering.h"
#include "common.h"
#include "core/aggregator.h"
#include "core/integration.h"
#include "eval/clustering_metrics.h"

int main() {
  using namespace sgla;
  for (const std::string dataset : {"yelp", "imdb"}) {
    const core::MultiViewGraph& mvag = bench::GetDataset(dataset);
    const std::vector<la::CsrMatrix>& views = bench::GetViewLaplacians(dataset);
    const int k = mvag.num_clusters();

    std::printf("=== Fig. 7 (%s): h(w) and Acc vs iteration t ===\n",
                dataset.c_str());
    auto result = core::Sgla(views, k);
    if (!result.ok()) {
      std::fprintf(stderr, "SGLA failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    core::LaplacianAggregator aggregator(&views);
    std::printf("%4s %10s %8s\n", "t", "h(w)", "Acc");
    double best_h = 1e30;
    int converged_at = -1;
    for (size_t t = 0; t < result->objective_history.size(); ++t) {
      const la::CsrMatrix& laplacian =
          aggregator.Aggregate(result->weight_history[t]);
      auto labels = cluster::SpectralClustering(laplacian, k);
      const double acc =
          labels.ok() ? eval::ClusteringAccuracy(*labels, mvag.labels()) : 0.0;
      const double h = result->objective_history[t];
      std::printf("%4zu %10.4f %8.3f\n", t + 1, h, acc);
      if (h < best_h - 1e-4) {
        best_h = h;
        converged_at = static_cast<int>(t + 1);
      }
    }
    std::printf("last h-improvement at t=%d (paper: converges well before "
                "T_max=50)\n\n", converged_at);
  }
  return 0;
}
