#ifndef SGLA_BENCH_COMMON_H_
#define SGLA_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/mvag.h"
#include "eval/clustering_metrics.h"
#include "la/sparse.h"

namespace sgla {
namespace bench {

/// Global scale factor for the synthetic datasets (env SGLA_BENCH_SCALE,
/// default 1.0). Lower it for a quick pass: SGLA_BENCH_SCALE=0.1.
double BenchScale();

/// Dataset access, memoized for the life of the process. Nothing is read
/// from or written to disk: every bench run measures the code it was built
/// from.
const core::MultiViewGraph& GetDataset(const std::string& name);

/// View Laplacians, memoized for the life of the process; *build_seconds
/// (optional) receives the wall time it took to build them the first time
/// (KNN graphs dominate).
const std::vector<la::CsrMatrix>& GetViewLaplacians(const std::string& name,
                                                    double* build_seconds = nullptr);

// ---------------------------------------------------------------------------
// Clustering methods (Table III / Fig. 5 / Fig. 11 rows).
// ---------------------------------------------------------------------------

struct ClusteringRun {
  bool ok = false;
  std::string note;  ///< "-" reason when !ok (OOM / unsupported)
  eval::ClusteringQuality quality;
  double seconds = 0.0;
  /// Lanczos vectors the SGLA / SGLA+ weight search built (0 for every
  /// other method, and on the dense fallback of tiny graphs).
  int64_t lanczos_vectors = 0;
};

/// Methods in table order.
std::vector<std::string> ClusteringMethods();

/// Runs one clustering method on one dataset (computed on every call).
ClusteringRun RunClustering(const std::string& method, const std::string& dataset);

// ---------------------------------------------------------------------------
// Embedding methods (Table IV / Fig. 6 rows).
// ---------------------------------------------------------------------------

struct EmbeddingRun {
  bool ok = false;
  std::string note;
  double macro_f1 = 0.0;
  double micro_f1 = 0.0;
  double seconds = 0.0;
};

std::vector<std::string> EmbeddingMethods();
/// Runs one embedding method on one dataset (computed on every call).
EmbeddingRun RunEmbedding(const std::string& method, const std::string& dataset);

/// Label-fraction used to train the Table IV classifier for this dataset
/// (paper: 20%, 1% for MAG-*; we use 5% for the scaled MAG stand-ins).
double TrainFraction(const std::string& dataset);

/// Average rank of each method across datasets and metrics, lower is better
/// (the "Overall rank" column of Tables III/IV). Failed runs rank last.
std::vector<double> OverallRanks(
    const std::vector<std::vector<std::vector<double>>>& metric_values);

}  // namespace bench
}  // namespace sgla

#endif  // SGLA_BENCH_COMMON_H_
