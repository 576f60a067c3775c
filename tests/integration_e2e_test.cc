// End-to-end recovery: a 2-view SBM with planted 4-way labels goes through
// core::Sgla / core::SglaPlus and spectral clustering to NMI >= 0.9, and the
// aggregator matches la::WeightedSum to 1e-12. Also exercises the objective
// semantics on the paper's Fig. 2 running example.
#include <cmath>

#include <gtest/gtest.h>

#include "cluster/spectral_clustering.h"
#include "core/aggregator.h"
#include "core/integration.h"
#include "core/objective.h"
#include "core/view_laplacian.h"
#include "data/generator.h"
#include "eval/clustering_metrics.h"
#include "graph/laplacian.h"
#include "util/rng.h"

namespace sgla {
namespace {

/// Two SBM views with complementary quality: view 1 is clean, view 2 noisy.
struct TwoViewFixture {
  std::vector<int32_t> labels;
  std::vector<la::CsrMatrix> views;

  static TwoViewFixture Make(int64_t n) {
    TwoViewFixture f;
    Rng rng(71);
    f.labels = data::BalancedLabels(n, 4, &rng);
    const graph::Graph g1 = data::SbmGraph(f.labels, 4, 0.08, 0.004, &rng);
    const graph::Graph g2 = data::SbmGraph(f.labels, 4, 0.03, 0.015, &rng);
    f.views = {graph::NormalizedLaplacian(g1), graph::NormalizedLaplacian(g2)};
    return f;
  }
};

TEST(AggregatorTest, MatchesWeightedSumToTightTolerance) {
  const TwoViewFixture f = TwoViewFixture::Make(500);
  core::LaplacianAggregator aggregator(&f.views);
  la::CsrMatrix fast;
  aggregator.BindPattern(&fast);
  for (double w : {0.0, 0.25, 0.6, 1.0}) {
    aggregator.AggregateValuesInto({w, 1.0 - w}, &fast);
    const la::CsrMatrix slow =
        la::WeightedSum({&f.views[0], &f.views[1]}, {w, 1.0 - w});
    ASSERT_EQ(fast.row_ptr, slow.row_ptr);
    ASSERT_EQ(fast.col_idx, slow.col_idx);
    for (size_t p = 0; p < slow.values.size(); ++p) {
      EXPECT_NEAR(fast.values[p], slow.values[p], 1e-12);
    }
  }
}

TEST(ObjectiveTest, RejectsOffSimplexWeights) {
  const TwoViewFixture f = TwoViewFixture::Make(200);
  core::SpectralObjective objective(&f.views, 4);
  EXPECT_FALSE(objective.Evaluate({0.5, 0.2}).ok());
  EXPECT_FALSE(objective.Evaluate({1.5, -0.5}).ok());
  EXPECT_TRUE(objective.Evaluate({0.5, 0.5}).ok());
  EXPECT_EQ(objective.evaluations(), 1);
}

TEST(SglaTest, RecoversPlantedPartitionNmi90) {
  const TwoViewFixture f = TwoViewFixture::Make(800);
  auto result = core::Sgla(f.views, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->weights.size(), 2u);
  EXPECT_NEAR(result->weights[0] + result->weights[1], 1.0, 1e-9);
  EXPECT_FALSE(result->objective_history.empty());
  EXPECT_EQ(result->objective_history.size(), result->weight_history.size());

  auto labels = cluster::SpectralClustering(result->laplacian, 4);
  ASSERT_TRUE(labels.ok());
  const eval::ClusteringQuality q = eval::EvaluateClustering(*labels, f.labels);
  EXPECT_GE(q.nmi, 0.9) << "SGLA accuracy: " << q.accuracy;
}

TEST(SglaPlusTest, RecoversPlantedPartitionNmi90) {
  const TwoViewFixture f = TwoViewFixture::Make(800);
  auto result = core::SglaPlus(f.views, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto labels = cluster::SpectralClustering(result->laplacian, 4);
  ASSERT_TRUE(labels.ok());
  const eval::ClusteringQuality q = eval::EvaluateClustering(*labels, f.labels);
  EXPECT_GE(q.nmi, 0.9) << "SGLA+ accuracy: " << q.accuracy;
}

TEST(SglaPlusTest, NodeSamplingPathStillRecovers) {
  const TwoViewFixture f = TwoViewFixture::Make(800);
  core::SglaPlusOptions options;
  options.max_objective_nodes = 300;  // force the induced-subgraph path
  auto result = core::SglaPlus(f.views, 4, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The final Laplacian must still be full-size.
  EXPECT_EQ(result->laplacian.rows, 800);
  auto labels = cluster::SpectralClustering(result->laplacian, 4);
  ASSERT_TRUE(labels.ok());
  EXPECT_GE(eval::EvaluateClustering(*labels, f.labels).nmi, 0.85);
}

TEST(SglaPlusTest, SampleSetMatchesPaperDefault) {
  const auto samples = core::SglaPlusSamples(3);
  ASSERT_EQ(samples.size(), 4u);  // r + 1
  for (const la::Vector& w : samples) {
    ASSERT_EQ(w.size(), 3u);
    double sum = 0.0;
    for (double x : w) {
      EXPECT_GE(x, 0.0);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SglaTest, EpsilonControlsEvaluationBudget) {
  const TwoViewFixture f = TwoViewFixture::Make(400);
  core::SglaOptions tight;
  tight.epsilon = 1e-6;
  core::SglaOptions loose;
  loose.epsilon = 1e-1;
  auto tight_result = core::Sgla(f.views, 4, tight);
  auto loose_result = core::Sgla(f.views, 4, loose);
  ASSERT_TRUE(tight_result.ok());
  ASSERT_TRUE(loose_result.ok());
  EXPECT_LE(loose_result->objective_history.size(),
            tight_result->objective_history.size());
}

TEST(ObjectiveTest, Fig2RunningExamplePrefersMixedWeights) {
  // The paper's 8-node 2-view example: the best eigengap-minus-connectivity
  // trade-off must lie strictly inside (0, 1).
  const graph::Graph g1 = graph::Graph::FromEdges(
      8, {{0, 1, 1.0}, {2, 3, 1.0}, {0, 3, 1.0},
          {4, 5, 1.0}, {5, 6, 1.0}, {6, 7, 1.0}, {4, 7, 1.0}, {4, 6, 1.0},
          {1, 4, 1.0}});
  const graph::Graph g2 = graph::Graph::FromEdges(
      8, {{1, 2, 1.0}, {0, 2, 1.0}, {1, 3, 1.0},
          {4, 5, 1.0}, {5, 7, 1.0}, {6, 7, 1.0}, {5, 6, 1.0},
          {3, 6, 1.0}});
  std::vector<la::CsrMatrix> views = {graph::NormalizedLaplacian(g1),
                                      graph::NormalizedLaplacian(g2)};
  core::ObjectiveOptions options;
  options.gamma = 0.0;
  core::SpectralObjective objective(&views, 2, options);
  double best = 1e30, best_w1 = -1.0;
  for (int step = 0; step <= 10; ++step) {
    const double w1 = step / 10.0;
    auto value = objective.Evaluate({w1, 1.0 - w1});
    ASSERT_TRUE(value.ok());
    const double diff = value->eigengap - value->lambda2;
    if (diff < best) {
      best = diff;
      best_w1 = w1;
    }
  }
  EXPECT_GT(best_w1, 0.0);
  EXPECT_LT(best_w1, 1.0);
}

}  // namespace
}  // namespace sgla
