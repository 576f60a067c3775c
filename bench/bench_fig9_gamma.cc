// Fig. 9: varying the regularization coefficient gamma of Eq. 5 from -2 to 2
// for SGLA+: clustering accuracy and NMI per dataset. Negative gamma pushes
// all weight onto one view; large positive gamma forces uniform weights.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/spectral_clustering.h"
#include "common.h"
#include "core/integration.h"
#include "data/datasets.h"
#include "eval/clustering_metrics.h"

int main() {
  using namespace sgla;
  const std::vector<double> gammas = {-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0};
  std::vector<std::string> datasets = data::DatasetNames();
  if (std::getenv("SGLA_BENCH_FULL") == nullptr) {
    datasets.erase(std::remove_if(datasets.begin(), datasets.end(),
                                  [](const std::string& d) {
                                    return d.rfind("mag-", 0) == 0;
                                  }),
                   datasets.end());
    std::printf("(MAG-* rows skipped; set SGLA_BENCH_FULL=1 to include them)\n");
  }

  // rows[dataset] = Acc per gamma, then NMI per gamma; both tables print
  // from this one sweep.
  std::vector<std::vector<double>> rows;
  for (const auto& dataset : datasets) {
    const core::MultiViewGraph& mvag = bench::GetDataset(dataset);
    const std::vector<la::CsrMatrix>& views = bench::GetViewLaplacians(dataset);
    std::vector<double> accs, nmis;
    for (double g : gammas) {
      core::SglaPlusOptions options;
      options.base.objective.gamma = g;
      auto result = core::SglaPlus(views, mvag.num_clusters(), options);
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
      accs.push_back(acc);
      nmis.push_back(nmi);
    }
    accs.insert(accs.end(), nmis.begin(), nmis.end());
    rows.push_back(std::move(accs));
  }

  std::printf("=== Fig. 9: varying gamma for SGLA+ ===\n\n");
  for (const std::string metric : {"Acc", "NMI"}) {
    std::printf("%-18s", (metric + " \\ gamma").c_str());
    for (double g : gammas) std::printf(" %8.1f", g);
    std::printf("\n");
    const size_t offset = metric == "Acc" ? 0 : gammas.size();
    for (size_t d = 0; d < datasets.size(); ++d) {
      std::printf("%-18s", datasets[d].c_str());
      for (size_t g = 0; g < gammas.size(); ++g) {
        std::printf(" %8.3f", rows[d][offset + g]);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("paper shape check: quality improves from gamma=-2 toward 0.5, "
              "then flattens or dips for gamma > 0.5 (default gamma=0.5).\n");
  return 0;
}
