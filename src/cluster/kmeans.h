#ifndef SGLA_CLUSTER_KMEANS_H_
#define SGLA_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "la/dense.h"

namespace sgla {
namespace cluster {

struct KMeansOptions {
  int num_init = 8;        ///< k-means++ restarts; best inertia wins
  int max_iterations = 100;
};

struct KMeansResult {
  std::vector<int32_t> labels;
  double inertia = 0.0;   ///< sum of squared distances to assigned centers
  la::DenseMatrix centers;
};

/// Reusable scratch for KMeansInto: the per-chunk reduction partials of the
/// fused assignment pass, the k-means++ distance cache, the center-update
/// scratch, and the per-restart candidate slot. Buffers grow on first use;
/// afterwards repeated solves at the same (n, d, k) reuse every allocation
/// (centers move between `candidate` and the output by swap, never by
/// reallocation).
struct KMeansWorkspace {
  std::vector<la::DenseMatrix> sum_partial;          ///< per-chunk center sums
  std::vector<std::vector<int64_t>> count_partial;   ///< per-chunk tallies
  std::vector<double> inertia_partial;
  std::vector<uint8_t> changed_partial;
  std::vector<int64_t> counts;
  std::vector<double> dist2;   ///< k-means++ D^2 cache
  la::DenseMatrix next;        ///< center-update scratch
  KMeansResult candidate;      ///< per-restart result slot
};

/// Lloyd's algorithm with k-means++ seeding from a fixed seed, so the
/// result is deterministic.
KMeansResult KMeans(const la::DenseMatrix& points, int k,
                    const KMeansOptions& options = {});

/// Workspace form: bit-identical to KMeans(), with all scratch (and the
/// result buffers, which are assign-reused) provided by the caller.
void KMeansInto(const la::DenseMatrix& points, int k,
                const KMeansOptions& options, KMeansWorkspace* workspace,
                KMeansResult* out);

}  // namespace cluster
}  // namespace sgla

#endif  // SGLA_CLUSTER_KMEANS_H_
