// Table IV: embedding quality for node classification (Macro-F1 / Micro-F1,
// logistic regression on 20% of labels; 5% on the scaled MAG stand-ins),
// with the paper-style overall rank.
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common.h"
#include "data/datasets.h"

int main() {
  using namespace sgla;
  const auto datasets = data::DatasetNames();
  const auto methods = bench::EmbeddingMethods();

  std::printf("=== Table IV: embedding quality for node classification "
              "(d=64, scale=%.2f) ===\n\n", bench::BenchScale());
  std::printf("%-11s", "method");
  for (const auto& d : datasets) std::printf("  %9.9s-MaF1 %9.9s-MiF1", d.c_str(), d.c_str());
  std::printf("\n");

  std::vector<std::vector<std::vector<double>>> metric_values(
      datasets.size(),
      std::vector<std::vector<double>>(2, std::vector<double>(methods.size(), NAN)));

  for (size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-11s", methods[m].c_str());
    for (size_t d = 0; d < datasets.size(); ++d) {
      bench::EmbeddingRun run = bench::RunEmbedding(methods[m], datasets[d]);
      if (run.ok) {
        std::printf("  %14.3f %14.3f", run.macro_f1, run.micro_f1);
        metric_values[d][0][m] = run.macro_f1;
        metric_values[d][1][m] = run.micro_f1;
      } else {
        std::printf("  %14s %14s", "-", "-");
      }
    }
    std::printf("\n");
  }

  const std::vector<double> ranks = bench::OverallRanks(metric_values);
  std::printf("\n--- Overall rank (avg over datasets x {MaF1, MiF1}) ---\n");
  for (size_t m = 0; m < methods.size(); ++m) {
    std::printf("%-11s %5.2f\n", methods[m].c_str(), ranks[m]);
  }
  // The fixed-d=64 comparison the paper makes: every method but WMSC-sp.
  double sgla = 0.0;
  double sgla_plus = 0.0;
  double best_baseline = std::numeric_limits<double>::infinity();
  std::string best_name = "-";
  for (size_t m = 0; m < methods.size(); ++m) {
    if (methods[m] == "SGLA") {
      sgla = ranks[m];
    } else if (methods[m] == "SGLA+") {
      sgla_plus = ranks[m];
    } else if (methods[m] != "WMSC-sp" && ranks[m] < best_baseline) {
      best_baseline = ranks[m];
      best_name = methods[m];
    }
  }
  std::printf("\nreading note: WMSC-sp concatenates every view's spectral "
              "embedding (r*k dims) — not one of the paper's baselines and "
              "outside its fixed d=64 protocol; on synthetic SBM spectra it "
              "acts as a near-oracle, so the check below leaves it out.\n");
  std::printf("paper shape check: SGLA %.2f and SGLA+ %.2f against best "
              "fixed-d=64 baseline %s %.2f (paper: both 1.5 vs 4.6): %s\n",
              sgla, sgla_plus, best_name.c_str(), best_baseline,
              sgla < best_baseline && sgla_plus < best_baseline
                  ? "holds"
                  : "does not hold");
  return 0;
}
