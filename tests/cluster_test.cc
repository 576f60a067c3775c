// Clustering substrate tests: k-means on separable blobs, spectral clustering
// on a planted SBM, the Yu-Shi discretization backend, and the per-ISA
// contracts of the fused k-means assignment kernel.
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/discretize.h"
#include "cluster/kmeans.h"
#include "cluster/spectral_clustering.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "graph/laplacian.h"
#include "la/simd.h"
#include "util/rng.h"

namespace sgla {
namespace {

/// Pins the SIMD dispatch path for one test scope, restoring the previous
/// path on destruction (same helper as la_test.cc).
class ScopedIsa {
 public:
  explicit ScopedIsa(la::simd::Isa isa) : previous_(la::simd::ActiveIsa()) {
    EXPECT_TRUE(la::simd::SetActiveForTesting(isa))
        << "pinning unavailable ISA " << la::simd::IsaName(isa);
  }
  ~ScopedIsa() { la::simd::SetActiveForTesting(previous_); }

 private:
  la::simd::Isa previous_;
};

TEST(KMeansTest, RecoversSeparatedBlobs) {
  Rng rng(51);
  const std::vector<int32_t> labels = data::BalancedLabels(240, 4, &rng);
  const la::DenseMatrix x =
      data::GaussianAttributes(labels, 4, 8, 6.0, 0.4, &rng);
  const cluster::KMeansResult result = cluster::KMeans(x, 4);
  EXPECT_GT(eval::ClusteringAccuracy(result.labels, labels), 0.98);
  EXPECT_GT(result.inertia, 0.0);
  EXPECT_EQ(result.centers.rows(), 4);
}

TEST(KMeansTest, DeterministicForFixedSeed) {
  Rng rng(52);
  const std::vector<int32_t> labels = data::BalancedLabels(100, 3, &rng);
  const la::DenseMatrix x =
      data::GaussianAttributes(labels, 3, 5, 3.0, 0.6, &rng);
  const cluster::KMeansResult a = cluster::KMeans(x, 3);
  const cluster::KMeansResult b = cluster::KMeans(x, 3);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

/// Satellite: the fused distance + argmin kernel must pick the same center
/// as a plain double-precision reference loop at every remainder-lane
/// dimension, on every runnable ISA path (random Gaussian data — argmin
/// gaps dwarf the cross-ISA rounding differences).
TEST(KMeansTest, NearestCenterRemainderLanesPerIsa) {
  const int64_t k = 5;
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    const la::simd::KernelTable* table = la::simd::ActiveTable();
    for (int64_t d : {int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9},
                      int64_t{511}, int64_t{512}, int64_t{513},
                      int64_t{2570}}) {
      Rng rng(700 + d);
      std::vector<double> point(static_cast<size_t>(d));
      std::vector<double> centers(static_cast<size_t>(k * d));
      for (double& v : point) v = rng.Gaussian();
      for (double& v : centers) v = rng.Gaussian();

      double ref_best = std::numeric_limits<double>::max();
      int64_t ref_c = 0;
      for (int64_t c = 0; c < k; ++c) {
        double d2 = 0.0;
        for (int64_t j = 0; j < d; ++j) {
          const double diff = point[static_cast<size_t>(j)] -
                              centers[static_cast<size_t>(c * d + j)];
          d2 += diff * diff;
        }
        if (d2 < ref_best) {
          ref_best = d2;
          ref_c = c;
        }
      }

      double best = std::numeric_limits<double>::max();
      int64_t best_c = 0;
      table->nearest_center(point.data(), centers.data(), k, d, &best,
                            &best_c);
      EXPECT_EQ(best_c, ref_c) << la::simd::IsaName(isa) << " d=" << d;
      EXPECT_NEAR(best, ref_best, 1e-10 * static_cast<double>(d) + 1e-12)
          << la::simd::IsaName(isa) << " d=" << d;

      // Within-ISA bit stability of the reduction.
      double best2 = std::numeric_limits<double>::max();
      int64_t best_c2 = 0;
      table->nearest_center(point.data(), centers.data(), k, d, &best2,
                            &best_c2);
      EXPECT_EQ(best, best2) << la::simd::IsaName(isa) << " d=" << d;
      EXPECT_EQ(best_c, best_c2);
    }
  }
}

/// Satellite: full k-means runs must be deterministic within each ISA path
/// and still recover the planted blobs on all of them.
TEST(KMeansTest, DeterministicAndCorrectPerIsa) {
  Rng rng(55);
  const std::vector<int32_t> labels = data::BalancedLabels(240, 4, &rng);
  const la::DenseMatrix x =
      data::GaussianAttributes(labels, 4, 9, 6.0, 0.4, &rng);
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    const cluster::KMeansResult a = cluster::KMeans(x, 4);
    const cluster::KMeansResult b = cluster::KMeans(x, 4);
    EXPECT_EQ(a.labels, b.labels) << la::simd::IsaName(isa);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia) << la::simd::IsaName(isa);
    EXPECT_GT(eval::ClusteringAccuracy(a.labels, labels), 0.95)
        << la::simd::IsaName(isa);
  }
}

TEST(SpectralClusteringTest, RecoversPlantedSbm) {
  Rng rng(53);
  const std::vector<int32_t> labels = data::BalancedLabels(400, 4, &rng);
  const graph::Graph g = data::SbmGraph(labels, 4, 0.12, 0.004, &rng);
  auto predicted = cluster::SpectralClustering(graph::NormalizedLaplacian(g), 4);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_GT(eval::ClusteringAccuracy(*predicted, labels), 0.95);
}

TEST(DiscretizeTest, MatchesKMeansOnCleanEmbedding) {
  Rng rng(54);
  const std::vector<int32_t> labels = data::BalancedLabels(300, 3, &rng);
  const graph::Graph g = data::SbmGraph(labels, 3, 0.15, 0.005, &rng);
  const la::CsrMatrix laplacian = graph::NormalizedLaplacian(g);
  auto embedding = cluster::SpectralEmbeddingForClustering(laplacian, 3);
  ASSERT_TRUE(embedding.ok());
  auto discrete = cluster::DiscretizeSpectral(*embedding);
  ASSERT_TRUE(discrete.ok()) << discrete.status().ToString();
  EXPECT_GT(eval::ClusteringAccuracy(*discrete, labels), 0.9);
}

}  // namespace
}  // namespace sgla
