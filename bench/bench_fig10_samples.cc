// Fig. 10: varying the number of weight-vector samples in SGLA+ by
// delta_s in {-2,-1,0,+2,+5,+10,+20} relative to the default r+1, on the
// Yelp / IMDB / DBLP / Amazon-computers stand-ins: Acc, NMI and time.
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/spectral_clustering.h"
#include "common.h"
#include "core/integration.h"
#include "eval/clustering_metrics.h"
#include "util/stopwatch.h"

int main() {
  using namespace sgla;
  const std::vector<int> deltas = {-2, -1, 0, 2, 5, 10, 20};
  const std::vector<std::string> datasets = {"yelp", "imdb", "dblp",
                                             "amazon-computers"};

  std::printf("=== Fig. 10: varying the number of weight-vector samples in "
              "SGLA+ (delta_s vs r+1 default) ===\n");
  for (const auto& dataset : datasets) {
    const core::MultiViewGraph& mvag = bench::GetDataset(dataset);
    const std::vector<la::CsrMatrix>& views = bench::GetViewLaplacians(dataset);
    std::printf("\n--- %s ---\n", dataset.c_str());
    std::printf("%8s %8s %8s %10s\n", "delta_s", "Acc", "NMI", "time(s)");
    for (int delta : deltas) {
      core::SglaPlusOptions options;
      options.sample_delta = delta;
      Stopwatch stopwatch;
      auto result = core::SglaPlus(views, mvag.num_clusters(), options);
      const double seconds = stopwatch.Seconds();
      double acc = 0.0, nmi = 0.0;
      if (result.ok()) {
        auto labels =
            cluster::SpectralClustering(result->laplacian, mvag.num_clusters());
        if (labels.ok()) {
          eval::ClusteringQuality q =
              eval::EvaluateClustering(*labels, mvag.labels());
          acc = q.accuracy;
          nmi = q.nmi;
        }
      }
      std::printf("%+8d %8.3f %8.3f %10.3f\n", delta, acc, nmi, seconds);
    }
  }
  std::printf("\npaper shape check: quality rises until delta_s=0 then "
              "saturates, while time keeps growing -> r+1 samples suffice.\n");
  return 0;
}
