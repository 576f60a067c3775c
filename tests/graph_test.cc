// NormalizedLaplacian invariants: symmetry, PSD-ness, the D^{1/2}1 null
// vector, unit diagonal, spectrum within [0, 2], bit-identity to triplet
// assembly; KNN graph sanity on well-separated blobs, and KnnGraph against
// a serial reference implementation on both paths.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "graph/graph.h"
#include "graph/knn.h"
#include "graph/laplacian.h"
#include "la/dense.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace reference {

// KnnGraph as it stood before the batched distance kernel: one dispatched
// squared_distance per pair, a duplicate check on every offer, the
// cross-tree merge on one thread and the union in a std::set. Kept verbatim
// (apart from running its trees one after another, which the per-tree heaps
// make immaterial) so the production KnnGraph can be held to it bit for bit.
using Candidate = std::pair<double, int64_t>;

class NeighborHeap {
 public:
  NeighborHeap(int64_t n, int k) : k_(k), heaps_(static_cast<size_t>(n)) {}

  void Offer(int64_t node, int64_t neighbor, double dist2) {
    auto& heap = heaps_[static_cast<size_t>(node)];
    for (const Candidate& c : heap) {
      if (c.second == neighbor) return;
    }
    if (static_cast<int>(heap.size()) < k_) {
      heap.push_back({dist2, neighbor});
      std::push_heap(heap.begin(), heap.end());
    } else if (dist2 < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist2, neighbor};
      std::push_heap(heap.begin(), heap.end());
    }
  }

  const std::vector<Candidate>& Of(int64_t node) const {
    return heaps_[static_cast<size_t>(node)];
  }

 private:
  int k_;
  std::vector<std::vector<Candidate>> heaps_;
};

void BruteForceBlock(const la::DenseMatrix& points,
                     const std::vector<int64_t>& block, NeighborHeap* heap) {
  const int64_t d = points.cols();
  for (size_t a = 0; a < block.size(); ++a) {
    for (size_t b = a + 1; b < block.size(); ++b) {
      const int64_t i = block[a];
      const int64_t j = block[b];
      const double dist2 =
          la::SquaredDistance(points.Row(i), points.Row(j), d);
      heap->Offer(i, j, dist2);
      heap->Offer(j, i, dist2);
    }
  }
}

void RpTreeSplit(const la::DenseMatrix& points, std::vector<int64_t> nodes,
                 int leaf_size, Rng* rng, NeighborHeap* heap) {
  if (static_cast<int>(nodes.size()) <= leaf_size) {
    BruteForceBlock(points, nodes, heap);
    return;
  }
  const int64_t d = points.cols();
  la::Vector direction(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) {
    direction[static_cast<size_t>(j)] = rng->Gaussian();
  }
  std::vector<double> projection(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    projection[i] = la::Dot(points.Row(nodes[i]), direction.data(), d);
  }
  std::vector<double> sorted = projection;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<int64_t> left, right;
  for (size_t i = 0; i < nodes.size(); ++i) {
    (projection[i] < median ? left : right).push_back(nodes[i]);
  }
  if (left.empty() || right.empty()) {
    left.assign(nodes.begin(), nodes.begin() + nodes.size() / 2);
    right.assign(nodes.begin() + nodes.size() / 2, nodes.end());
  }
  RpTreeSplit(points, std::move(left), leaf_size, rng, heap);
  RpTreeSplit(points, std::move(right), leaf_size, rng, heap);
}

graph::Graph KnnGraph(const la::DenseMatrix& points,
                      const graph::KnnOptions& options) {
  const int64_t n = points.rows();
  NeighborHeap heap(n, options.k);
  if (n <= options.exact_threshold) {
    std::vector<int64_t> all(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
    BruteForceBlock(points, all, &heap);
  } else {
    std::vector<NeighborHeap> tree_heaps;
    for (int t = 0; t < options.trees; ++t) {
      tree_heaps.emplace_back(n, options.k);
      Rng tree_rng(options.seed +
                   0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1));
      std::vector<int64_t> all(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
      RpTreeSplit(points, std::move(all), options.leaf_size, &tree_rng,
                  &tree_heaps.back());
    }
    for (int t = 0; t < options.trees; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        for (const Candidate& c : tree_heaps[static_cast<size_t>(t)].Of(i)) {
          heap.Offer(i, c.second, c.first);
        }
      }
    }
  }
  std::set<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i < n; ++i) {
    for (const Candidate& c : heap.Of(i)) {
      const int64_t j = c.second;
      edges.insert({std::min(i, j), std::max(i, j)});
    }
  }
  graph::Graph g(n);
  for (const auto& [u, v] : edges) g.AddEdge(u, v, 1.0);
  return g;
}

}  // namespace reference

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

/// KnnGraph must reproduce the reference above edge for edge, on the exact
/// scan (row-parallel and serial pair loop) and the RP forest (batched leaf
/// scans, duplicate-free per-tree heaps, row-parallel merge), at 1, 2 and 4
/// threads under every ISA. The tie-heavy inputs (small integer attributes,
/// every third row duplicated) make many distances equal, so offer order
/// decides which neighbors a full heap keeps.
TEST(KnnTest, MatchesParentImplementationBitForBit) {
  struct Input {
    std::string name;
    la::DenseMatrix points;
  };
  std::vector<Input> inputs;
  for (int64_t n : {300, 700}) {
    for (int64_t d : {3, 13, 16}) {
      Rng rng(static_cast<uint64_t>(90 * n + d));
      const std::vector<int32_t> labels = data::BalancedLabels(n, 4, &rng);
      la::DenseMatrix blobs =
          data::GaussianAttributes(labels, 4, d, 3.0, 0.9, &rng);
      la::DenseMatrix ties = blobs;
      for (double& v : ties.data()) v = std::floor(v);
      for (int64_t i = 0; i + 1 < n; i += 3) {
        std::copy(ties.Row(i), ties.Row(i) + d, ties.Row(i + 1));
      }
      const std::string shape =
          "n=" + std::to_string(n) + " d=" + std::to_string(d);
      inputs.push_back({"blobs " + shape, std::move(blobs)});
      inputs.push_back({"ties " + shape, std::move(ties)});
    }
  }
  std::vector<std::pair<std::string, graph::KnnOptions>> configs;
  {
    graph::KnnOptions exact;
    exact.exact_threshold = 1 << 30;
    configs.push_back({"exact", exact});
    graph::KnnOptions forest;
    forest.exact_threshold = 1;
    configs.push_back({"forest", forest});
    forest.k = 6;
    forest.trees = 5;
    forest.leaf_size = 40;
    configs.push_back({"forest k=6 trees=5 leaf=40", forest});
  }
  const int restore_threads = util::ThreadPool::Global().num_threads();
  const la::simd::Isa restore_isa = la::simd::ActiveIsa();
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ASSERT_TRUE(la::simd::SetActiveForTesting(isa));
    for (const Input& input : inputs) {
      for (const auto& [config_name, options] : configs) {
        const graph::Graph want = reference::KnnGraph(input.points, options);
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(std::string(la::simd::IsaName(isa)) + " " +
                       input.name + " " + config_name +
                       " threads=" + std::to_string(threads));
          util::ThreadPool::SetGlobalThreads(threads);
          const graph::Graph got = graph::KnnGraph(input.points, options);
          ASSERT_EQ(got.num_nodes(), want.num_nodes());
          ASSERT_EQ(got.num_edges(), want.num_edges());
          for (size_t e = 0; e < got.edges().size(); ++e) {
            const graph::Edge& g = got.edges()[e];
            const graph::Edge& w = want.edges()[e];
            ASSERT_TRUE(g.u == w.u && g.v == w.v && g.weight == w.weight)
                << "edge " << e << ": (" << g.u << ", " << g.v << ") vs ("
                << w.u << ", " << w.v << ")";
          }
        }
      }
    }
  }
  la::simd::SetActiveForTesting(restore_isa);
  util::ThreadPool::SetGlobalThreads(restore_threads);
}

}  // namespace
}  // namespace sgla
