// Dataset generator + binary IO round trips, covering the bench cache layer.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/generator.h"
#include "data/io.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace sgla {
namespace {

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

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

TEST(IoTest, CsrRoundTrip) {
  Rng rng(63);
  std::vector<la::Triplet> entries;
  for (int i = 0; i < 200; ++i) {
    entries.push_back({rng.UniformInt(0, 49), rng.UniformInt(0, 39),
                       rng.Gaussian()});
  }
  const la::CsrMatrix m = la::FromTriplets(50, 40, std::move(entries));
  const std::string path = TempPath("sgla_io_test.csr");
  ASSERT_TRUE(data::SaveCsr(m, path).ok());
  auto loaded = data::LoadCsr(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows, m.rows);
  EXPECT_EQ(loaded->cols, m.cols);
  EXPECT_EQ(loaded->row_ptr, m.row_ptr);
  EXPECT_EQ(loaded->col_idx, m.col_idx);
  EXPECT_EQ(loaded->values, m.values);
  std::remove(path.c_str());
  EXPECT_FALSE(data::LoadCsr(path).ok());
}

/// The bytes of an MVAG block holding one attribute view whose stored
/// shape is (rows, cols) over `doubles` values, in data::SaveMvagBytes'
/// layout.
std::string AttributeBlockBytes(int64_t rows, int64_t cols, size_t doubles) {
  std::string bytes;
  const auto put = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  const auto put_u64 = [&put](uint64_t v) { put(&v, sizeof v); };
  const auto put_i64 = [&put](int64_t v) { put(&v, sizeof v); };
  put_u64(0x53474c416d7667ull);  // "SGLAmvg"
  put_i64(rows > 0 ? rows : 1);  // nodes
  put_i64(3);                    // clusters
  put_u64(0);                    // no labels
  put_u64(0);                    // no graph views
  put_u64(1);                    // one attribute view
  put_i64(rows);
  put_i64(cols);
  put_u64(doubles);
  const std::vector<double> values(doubles, 1.0);
  put(values.data(), doubles * sizeof(double));
  return bytes;
}

TEST(IoTest, MvagShapeLiesAreTypedInvalidArgument) {
  struct Shape {
    int64_t rows;
    int64_t cols;
    size_t doubles;
  };
  // The first two products wrap to the value count in 64 bits; the third
  // is a negative shape whose product is positive.
  const Shape lies[] = {{512, int64_t{1} << 55, 0},
                        {3, int64_t{0x5555555555555556}, 2},
                        {-2, -1, 2}};
  for (const Shape& lie : lies) {
    SCOPED_TRACE(lie.cols);
    const std::string bytes = AttributeBlockBytes(lie.rows, lie.cols,
                                                  lie.doubles);
    auto loaded = data::LoadMvagBytes(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(),
        nullptr);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  const std::string honest = AttributeBlockBytes(2, 3, 6);
  auto loaded = data::LoadMvagBytes(
      reinterpret_cast<const uint8_t*>(honest.data()), honest.size(),
      nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->attribute_views().size(), 1u);
  EXPECT_EQ(loaded->attribute_views()[0].rows(), 2);
  EXPECT_EQ(loaded->attribute_views()[0].cols(), 3);
}

TEST(IoTest, MvagRoundTrip) {
  auto mvag = data::MakeDataset("rm", 1.0);
  ASSERT_TRUE(mvag.ok());
  const std::string path = TempPath("sgla_io_test.mvag");
  ASSERT_TRUE(data::SaveMvag(*mvag, path).ok());
  auto loaded = data::LoadMvag(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_nodes(), mvag->num_nodes());
  EXPECT_EQ(loaded->num_clusters(), mvag->num_clusters());
  EXPECT_EQ(loaded->labels(), mvag->labels());
  ASSERT_EQ(loaded->graph_views().size(), mvag->graph_views().size());
  for (size_t v = 0; v < mvag->graph_views().size(); ++v) {
    EXPECT_EQ(loaded->graph_views()[v].num_edges(),
              mvag->graph_views()[v].num_edges());
  }
  ASSERT_EQ(loaded->attribute_views().size(), mvag->attribute_views().size());
  for (size_t v = 0; v < mvag->attribute_views().size(); ++v) {
    EXPECT_EQ(loaded->attribute_views()[v].data(),
              mvag->attribute_views()[v].data());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgla
