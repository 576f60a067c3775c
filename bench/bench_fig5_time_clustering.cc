// Fig. 5: running time of clustering in seconds, per dataset and method
// (log-scale bars in the paper; rows here). Also reports peak RSS, matching
// the paper's memory-efficiency discussion (Sec. VI-B).
// Exit status is the paper's shape check that SGLA+ is cheaper than SGLA,
// counted in Lanczos vectors rather than wall time (the solves take
// milliseconds here, well inside the host's timing noise): 1 unless SGLA+
// builds strictly fewer vectors than SGLA on every dataset where SGLA builds
// any.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "data/datasets.h"
#include "util/stopwatch.h"

int main() {
  using namespace sgla;
  const auto datasets = data::DatasetNames();
  const auto methods = bench::ClusteringMethods();

  std::printf("=== Fig. 5: clustering running time, seconds (scale=%.2f) ===\n\n",
              bench::BenchScale());
  std::printf("%-11s", "method");
  for (const auto& d : datasets) std::printf(" %10.10s", d.c_str());
  std::printf("\n");

  // runs[method][dataset], each run once; the speedup lines reuse them.
  std::vector<std::vector<bench::ClusteringRun>> runs;
  for (const auto& method : methods) {
    std::printf("%-11s", method.c_str());
    runs.emplace_back();
    for (const auto& dataset : datasets) {
      runs.back().push_back(bench::RunClustering(method, dataset));
      const bench::ClusteringRun& run = runs.back().back();
      if (run.ok) {
        std::printf(" %10.3f", run.seconds);
      } else {
        std::printf(" %10s", "-");
      }
    }
    std::printf("\n");
  }

  // Speedup line the paper highlights: SGLA+ vs the strongest baseline time.
  std::printf("\nSGLA+ speedup vs slowest successful baseline per dataset:\n");
  for (size_t d = 0; d < datasets.size(); ++d) {
    double fast = 0.0;
    double slowest = 0.0;
    std::string who;
    for (size_t m = 0; m < methods.size(); ++m) {
      const bench::ClusteringRun& run = runs[m][d];
      if (methods[m] == "SGLA+") fast = run.seconds;
      if (methods[m] == "SGLA" || methods[m] == "SGLA+") continue;
      if (run.ok && run.seconds > slowest) {
        slowest = run.seconds;
        who = methods[m];
      }
    }
    if (fast > 0.0 && slowest > 0.0) {
      std::printf("  %-18s %6.1fx (vs %s)\n", datasets[d].c_str(),
                  slowest / fast, who.c_str());
    }
  }
  std::printf("\npeak RSS of this bench process: %.2f GB\n",
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0 * 1024.0));

  std::printf("\nLanczos vectors built by the weight search (SGLA+ / SGLA):\n");
  const auto row_of = [&](const std::string& name) {
    return static_cast<size_t>(
        std::find(methods.begin(), methods.end(), name) - methods.begin());
  };
  const std::vector<bench::ClusteringRun>& sgla = runs[row_of("SGLA")];
  const std::vector<bench::ClusteringRun>& sgla_plus = runs[row_of("SGLA+")];
  bool cheaper = true;
  for (size_t d = 0; d < datasets.size(); ++d) {
    if (sgla[d].lanczos_vectors == 0) {
      std::printf("  %-18s SGLA built none (dense fallback or failed)\n",
                  datasets[d].c_str());
      continue;
    }
    const bool holds = sgla_plus[d].ok &&
                       sgla_plus[d].lanczos_vectors < sgla[d].lanczos_vectors;
    std::printf("  %-18s %6lld / %6lld%s\n", datasets[d].c_str(),
                static_cast<long long>(sgla_plus[d].lanczos_vectors),
                static_cast<long long>(sgla[d].lanczos_vectors),
                holds ? "" : "  FAIL");
    cheaper = cheaper && holds;
  }
  std::printf("paper shape check: SGLA+ builds fewer Lanczos vectors than "
              "SGLA wherever SGLA builds any: %s\n",
              cheaper ? "PASS" : "FAIL");
  return cheaper ? 0 : 1;
}
