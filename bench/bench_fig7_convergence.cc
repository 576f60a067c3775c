// Fig. 7: convergence of SGLA — objective h(w) and clustering accuracy as a
// function of the iteration (objective-evaluation) count t, on the Yelp and
// IMDB stand-ins. The paper shows h decreasing to a plateau while Acc rises.
// Exit status is the paper's shape check: 1 unless, on both datasets, the
// last improvement of h comes before T_max and the weight search stops on
// its own convergence test, before it has spent T_max evaluations (a search
// that runs out of budget still improves h at its last iteration below T_max,
// because the initial simplex spends several evaluations on iteration 1).
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
  const int t_max = core::SglaOptions().max_evaluations;
  bool converged = true;
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
    la::CsrMatrix laplacian;
    aggregator.BindPattern(&laplacian);
    std::printf("%4s %10s %8s\n", "t", "h(w)", "Acc");
    double best_h = 1e30;
    int converged_at = -1;
    for (size_t t = 0; t < result->objective_history.size(); ++t) {
      aggregator.AggregateValuesInto(result->weight_history[t], &laplacian);
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
    const bool holds = converged_at >= 1 && converged_at < t_max &&
                       result->evaluations < t_max;
    std::printf("last h-improvement at t=%d, search stopped after %lld "
                "evaluations (paper: converges well before T_max=%d): %s\n\n",
                converged_at, static_cast<long long>(result->evaluations),
                t_max, holds ? "PASS" : "FAIL");
    converged = converged && holds;
  }
  std::printf("paper shape check: SGLA converges before T_max=%d on yelp "
              "and imdb: %s\n",
              t_max, converged ? "PASS" : "FAIL");
  return converged ? 0 : 1;
}
