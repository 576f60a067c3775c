// NormalizedLaplacian invariants: symmetry, PSD-ness, the D^{1/2}1 null
// vector, unit diagonal, spectrum within [0, 2], bit-identity to triplet
// assembly; KNN graph sanity on well-separated blobs.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/graph.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/lanczos.h"
#include "util/rng.h"

namespace sgla {
namespace {

graph::Graph TestGraph() {
  return graph::Graph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 2.0}, {2, 0, 1.0}, {3, 4, 1.0}, {4, 5, 0.5},
          {2, 3, 0.25}});
}

TEST(LaplacianTest, SymmetricWithUnitDiagonal) {
  const la::CsrMatrix l = graph::NormalizedLaplacian(TestGraph());
  const la::DenseMatrix d = la::ToDense(l);
  for (int64_t i = 0; i < d.rows(); ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 1.0);
    for (int64_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-14);
    }
  }
}

TEST(LaplacianTest, MatchesTripletAssemblyBitForBit) {
  // NormalizedLaplacian inserts the unit diagonal into the sorted rows of
  // NormalizedAdjacency; it must store exactly what assembling I - \hat{A}
  // through FromTriplets stores, down to the sign of zero. The graph has a
  // self-loop (dropped), duplicate edges, an isolated node (5: no diagonal),
  // a zero-weight edge (-0.0 after negation) and a zero-degree pair (6, 7).
  const graph::Graph g = graph::Graph::FromEdges(
      9, {{0, 3, 1.0}, {3, 0, 0.5}, {1, 1, 4.0}, {1, 2, 2.0}, {2, 4, 0.0},
          {4, 0, 1.5}, {8, 2, 0.75}, {6, 7, 0.0}, {3, 8, 3.0}});
  const la::CsrMatrix adjacency = graph::NormalizedAdjacency(g);
  std::vector<la::Triplet> entries;
  for (int64_t r = 0; r < adjacency.rows; ++r) {
    const int64_t begin = adjacency.row_ptr[static_cast<size_t>(r)];
    const int64_t end = adjacency.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = begin; p < end; ++p) {
      entries.push_back({r, adjacency.col_idx[static_cast<size_t>(p)],
                         -adjacency.values[static_cast<size_t>(p)]});
    }
    if (begin < end) entries.push_back({r, r, 1.0});
  }
  const la::CsrMatrix want = la::FromTriplets(9, 9, std::move(entries));
  const la::CsrMatrix got = graph::NormalizedLaplacian(g);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (size_t p = 0; p < got.values.size(); ++p) {
    uint64_t got_bits = 0;
    uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got.values[p], sizeof got_bits);
    std::memcpy(&want_bits, &want.values[p], sizeof want_bits);
    EXPECT_EQ(got_bits, want_bits) << "slot " << p;
  }
  EXPECT_EQ(got.row_ptr[6] - got.row_ptr[5], 0);  // isolated: empty row
}

TEST(LaplacianTest, SqrtDegreeVectorIsInNullSpace) {
  const graph::Graph g = TestGraph();
  const la::CsrMatrix l = graph::NormalizedLaplacian(g);
  // Row sums of L weighted by sqrt(degree): L * D^{1/2} 1 = 0.
  std::vector<double> degree(6, 0.0);
  for (const graph::Edge& e : g.edges()) {
    degree[static_cast<size_t>(e.u)] += e.weight;
    degree[static_cast<size_t>(e.v)] += e.weight;
  }
  la::Vector x(6), y(6);
  for (int i = 0; i < 6; ++i) {
    x[static_cast<size_t>(i)] = std::sqrt(degree[static_cast<size_t>(i)]);
  }
  la::Spmv(l, x.data(), y.data());
  for (int i = 0; i < 6; ++i) {
    EXPECT_NEAR(y[static_cast<size_t>(i)], 0.0, 1e-12);
  }
}

TEST(LaplacianTest, PsdWithSpectrumInZeroTwo) {
  Rng rng(21);
  std::vector<int32_t> labels = data::BalancedLabels(80, 3, &rng);
  const graph::Graph g = data::SbmGraph(labels, 3, 0.3, 0.05, &rng);
  const la::CsrMatrix l = graph::NormalizedLaplacian(g);
  auto eigen = la::SmallestEigenpairs(l, 80, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_GE(eigen->values.front(), -1e-9);              // PSD
  EXPECT_NEAR(eigen->values.front(), 0.0, 1e-9);        // lambda_1 = 0
  EXPECT_LE(eigen->values.back(), 2.0 + 1e-9);          // normalized bound
  // Random quadratic forms are non-negative too.
  la::Vector x(80), y(80);
  for (int trial = 0; trial < 5; ++trial) {
    for (double& v : x) v = rng.Gaussian();
    la::Spmv(l, x.data(), y.data());
    EXPECT_GE(la::Dot(x.data(), y.data(), 80), -1e-9);
  }
}

TEST(LaplacianTest, DisconnectedComponentsGiveZeroEigenvalues) {
  // Two disjoint triangles: lambda_1 = lambda_2 = 0, lambda_3 > 0.
  const graph::Graph g = graph::Graph::FromEdges(
      6, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 0, 1.0},
          {3, 4, 1.0}, {4, 5, 1.0}, {5, 3, 1.0}});
  auto eigen = la::SmallestEigenpairs(graph::NormalizedLaplacian(g), 3, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 0.0, 1e-10);
  EXPECT_NEAR(eigen->values[1], 0.0, 1e-10);
  EXPECT_GT(eigen->values[2], 0.5);
}

TEST(LaplacianTest, LargeDisconnectedGraphKeepsEigenvalueMultiplicity) {
  // Two disjoint SBM components, large enough for the Lanczos path (> 96
  // nodes): lambda_1 = lambda_2 = 0 exactly. Single-vector Lanczos without
  // deflated restarts collapses the repeated zero to multiplicity 1.
  Rng rng(24);
  std::vector<int32_t> labels = data::BalancedLabels(150, 2, &rng);
  const graph::Graph g = data::SbmGraph(labels, 2, 0.2, 0.0, &rng);
  auto eigen = la::SmallestEigenpairs(graph::NormalizedLaplacian(g), 3, 2.0);
  ASSERT_TRUE(eigen.ok());
  EXPECT_NEAR(eigen->values[0], 0.0, 1e-8);
  EXPECT_NEAR(eigen->values[1], 0.0, 1e-8);
  EXPECT_GT(eigen->values[2], 0.05);
}

TEST(KnnTest, ConnectsWithinBlobsOnSeparatedData) {
  Rng rng(22);
  std::vector<int32_t> labels = data::BalancedLabels(120, 3, &rng);
  la::DenseMatrix x = data::GaussianAttributes(labels, 3, 8, 8.0, 0.3, &rng);
  graph::KnnOptions options;
  options.k = 5;
  const graph::Graph g = graph::KnnGraph(x, options);
  EXPECT_EQ(g.num_nodes(), 120);
  EXPECT_GE(g.num_edges(), 120 * 5 / 2);
  int64_t cross = 0;
  for (const graph::Edge& e : g.edges()) {
    if (labels[static_cast<size_t>(e.u)] != labels[static_cast<size_t>(e.v)]) {
      ++cross;
    }
  }
  // With separation 8 >> noise 0.3, essentially every edge stays in-blob.
  EXPECT_LT(static_cast<double>(cross), 0.05 * static_cast<double>(g.num_edges()));
}

TEST(KnnTest, ApproximatePathCoversExactNeighborsMostly) {
  Rng rng(23);
  std::vector<int32_t> labels = data::BalancedLabels(300, 3, &rng);
  la::DenseMatrix x = data::GaussianAttributes(labels, 3, 6, 4.0, 0.8, &rng);
  graph::KnnOptions exact;
  exact.k = 6;
  exact.exact_threshold = 1 << 30;
  graph::KnnOptions approx = exact;
  approx.exact_threshold = 1;  // force the RP-forest path
  const graph::Graph ge = graph::KnnGraph(x, exact);
  const graph::Graph ga = graph::KnnGraph(x, approx);
  std::map<std::pair<int64_t, int64_t>, bool> exact_edges;
  for (const graph::Edge& e : ge.edges()) {
    exact_edges[{std::min(e.u, e.v), std::max(e.u, e.v)}] = true;
  }
  int64_t recalled = 0;
  for (const graph::Edge& e : ga.edges()) {
    if (exact_edges.count({std::min(e.u, e.v), std::max(e.u, e.v)}) > 0) {
      ++recalled;
    }
  }
  // The forest should recover a solid majority of true neighbor pairs.
  EXPECT_GT(static_cast<double>(recalled),
            0.5 * static_cast<double>(ge.num_edges()));
}

}  // namespace
}  // namespace sgla
