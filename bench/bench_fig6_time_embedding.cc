// Fig. 6: running time of embedding in seconds, per dataset and method, plus
// the SGLA+ speedup highlights and peak memory (Sec. VI-C).
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "data/datasets.h"
#include "util/stopwatch.h"

int main() {
  using namespace sgla;
  const auto datasets = data::DatasetNames();
  const auto methods = bench::EmbeddingMethods();

  std::printf("=== Fig. 6: embedding running time, seconds (scale=%.2f) ===\n\n",
              bench::BenchScale());
  std::printf("%-11s", "method");
  for (const auto& d : datasets) std::printf(" %10.10s", d.c_str());
  std::printf("\n");

  // The SGLA and SGLA+ rows, kept for the ratio lines below.
  std::vector<bench::EmbeddingRun> full, plus;
  for (const auto& method : methods) {
    std::printf("%-11s", method.c_str());
    for (const auto& dataset : datasets) {
      bench::EmbeddingRun run = bench::RunEmbedding(method, dataset);
      if (run.ok) {
        std::printf(" %10.3f", run.seconds);
      } else {
        std::printf(" %10s", "-");
      }
      if (method == "SGLA") full.push_back(run);
      if (method == "SGLA+") plus.push_back(run);
    }
    std::printf("\n");
  }

  std::printf("\nSGLA+ vs SGLA time ratio per dataset (paper: SGLA+ faster "
              "everywhere):\n");
  for (size_t d = 0; d < datasets.size(); ++d) {
    if (plus[d].ok && full[d].ok && plus[d].seconds > 0.0) {
      std::printf("  %-18s SGLA/SGLA+ = %5.2fx\n", datasets[d].c_str(),
                  full[d].seconds / plus[d].seconds);
    }
  }
  std::printf("\npeak RSS of this bench process: %.2f GB\n",
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0 * 1024.0));
  return 0;
}
