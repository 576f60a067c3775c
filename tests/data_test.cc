// Dataset generator and the paper-dataset stand-ins.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/generator.h"
#include "util/rng.h"

namespace sgla {
namespace {

TEST(GeneratorTest, BalancedLabelsAreBalanced) {
  Rng rng(61);
  const std::vector<int32_t> labels = data::BalancedLabels(103, 4, &rng);
  std::vector<int64_t> counts(4, 0);
  for (int32_t label : labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 4);
    ++counts[static_cast<size_t>(label)];
  }
  for (int64_t c : counts) {
    EXPECT_GE(c, 103 / 4);
    EXPECT_LE(c, 103 / 4 + 1);
  }
}

TEST(GeneratorTest, SbmEdgeCountsTrackProbabilities) {
  Rng rng(62);
  const int64_t n = 600;
  const std::vector<int32_t> labels = data::BalancedLabels(n, 3, &rng);
  const graph::Graph g = data::SbmGraph(labels, 3, 0.05, 0.01, &rng);
  int64_t within = 0, across = 0;
  for (const graph::Edge& e : g.edges()) {
    (labels[static_cast<size_t>(e.u)] == labels[static_cast<size_t>(e.v)]
         ? within
         : across)++;
  }
  // Expected: within ~ p_in * 3 * C(200,2) = 2985, across ~ 0.01 * 120000 = 1200.
  EXPECT_NEAR(static_cast<double>(within), 2985.0, 300.0);
  EXPECT_NEAR(static_cast<double>(across), 1200.0, 200.0);
}

TEST(DatasetsTest, EveryNameMakesAConsistentDataset) {
  for (const std::string& name : data::DatasetNames()) {
    auto mvag = data::MakeDataset(name, 0.05);
    ASSERT_TRUE(mvag.ok()) << name << ": " << mvag.status().ToString();
    EXPECT_GT(mvag->num_nodes(), 0) << name;
    EXPECT_GE(mvag->num_clusters(), 2) << name;
    EXPECT_GT(mvag->num_views(), 0) << name;
    EXPECT_EQ(static_cast<int64_t>(mvag->labels().size()), mvag->num_nodes());
    for (const auto& g : mvag->graph_views()) {
      EXPECT_EQ(g.num_nodes(), mvag->num_nodes()) << name;
    }
    for (const auto& x : mvag->attribute_views()) {
      EXPECT_EQ(x.rows(), mvag->num_nodes()) << name;
    }
    EXPECT_GE(data::RecommendedKnnK(name, 0.05), 1);
  }
  EXPECT_FALSE(data::MakeDataset("no-such-dataset", 1.0).ok());
  EXPECT_EQ(data::PaperTable2().size(), data::DatasetNames().size());
}

TEST(DatasetsTest, YelpStandInHasThreeViews) {
  // Fig. 3 depends on the r = 3 Yelp stand-in.
  auto mvag = data::MakeDataset("yelp", 0.1);
  ASSERT_TRUE(mvag.ok());
  EXPECT_EQ(mvag->num_views(), 3);
}

}  // namespace
}  // namespace sgla
