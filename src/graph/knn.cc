#include "graph/knn.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace graph {
namespace {

using Candidate = std::pair<double, int64_t>;  // (squared distance, neighbor)

/// Rows per chunk of the row-parallel exact scan and cross-tree merge.
constexpr int64_t kScanGrain = 32;
constexpr int64_t kMergeGrain = 256;

/// Keeps the k best candidates per node in a bounded max-heap-ish vector.
class NeighborHeap {
 public:
  NeighborHeap(int64_t n, int k) : k_(k), heaps_(static_cast<size_t>(n)) {}

  /// Offers a candidate the node's heap has never been offered: the exact
  /// scan and each RP tree offer every pair once, so no duplicate check.
  void Insert(int64_t node, int64_t neighbor, double dist2) {
    auto& heap = heaps_[static_cast<size_t>(node)];
    if (static_cast<int>(heap.size()) < k_) {
      heap.push_back({dist2, neighbor});
      std::push_heap(heap.begin(), heap.end());
    } else if (dist2 < heap.front().first) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = {dist2, neighbor};
      std::push_heap(heap.begin(), heap.end());
    }
  }

  /// Insert for the cross-tree merge, where different RP trees re-offer the
  /// same pair; duplicates would crowd out genuine neighbors (k is small, so
  /// a linear scan is cheapest). A candidate a full heap rejects anyway
  /// skips the scan, which changes no decision.
  void Offer(int64_t node, int64_t neighbor, double dist2) {
    const auto& heap = heaps_[static_cast<size_t>(node)];
    if (static_cast<int>(heap.size()) >= k_ &&
        !(dist2 < heap.front().first)) {
      return;
    }
    for (const Candidate& c : heap) {
      if (c.second == neighbor) return;
    }
    Insert(node, neighbor, dist2);
  }

  const std::vector<Candidate>& Of(int64_t node) const {
    return heaps_[static_cast<size_t>(node)];
  }

 private:
  int k_;
  std::vector<std::vector<Candidate>> heaps_;
};

/// Offers every pair of `count` contiguous length-d rows (row a is node
/// nodes[a]) to both endpoints' heaps in the pair loop's order: a
/// ascending, then b > a ascending, i's heap before j's. One batched
/// distance call per row measures it against the rows after it; `dist`
/// holds at least count doubles.
void PairScan(const double* rows, const int64_t* nodes, int64_t count,
              int64_t d, double* dist, NeighborHeap* heap) {
  for (int64_t a = 0; a + 1 < count; ++a) {
    const int64_t rest = count - a - 1;
    la::SquaredDistances(rows + a * d, rows + (a + 1) * d, rest, d, dist);
    const int64_t i = nodes[a];
    for (int64_t b = 0; b < rest; ++b) {
      const int64_t j = nodes[a + 1 + b];
      heap->Insert(i, j, dist[b]);
      heap->Insert(j, i, dist[b]);
    }
  }
}

/// One tree's leaf buffers, grown to the largest leaf and then reused.
struct LeafScratch {
  std::vector<double> rows;
  std::vector<double> dist;
};

/// Copies a leaf's rows into contiguous scratch once, then pair-scans it.
void BruteForceLeaf(const la::DenseMatrix& points,
                    const std::vector<int64_t>& leaf, LeafScratch* scratch,
                    NeighborHeap* heap) {
  const int64_t d = points.cols();
  const int64_t count = static_cast<int64_t>(leaf.size());
  scratch->rows.resize(static_cast<size_t>(count * d));
  scratch->dist.resize(leaf.size());
  for (int64_t a = 0; a < count; ++a) {
    std::copy(points.Row(leaf[static_cast<size_t>(a)]),
              points.Row(leaf[static_cast<size_t>(a)]) + d,
              scratch->rows.data() + a * d);
  }
  PairScan(scratch->rows.data(), leaf.data(), count, d, scratch->dist.data(),
           heap);
}

/// Recursively splits `nodes` by a random hyperplane until leaves are small,
/// then brute-forces each leaf into the tree's neighbor heap.
void RpTreeSplit(const la::DenseMatrix& points, std::vector<int64_t> nodes,
                 int leaf_size, Rng* rng, LeafScratch* scratch,
                 NeighborHeap* heap) {
  if (static_cast<int>(nodes.size()) <= leaf_size) {
    BruteForceLeaf(points, nodes, scratch, heap);
    return;
  }
  const int64_t d = points.cols();
  la::Vector direction(static_cast<size_t>(d));
  for (int64_t j = 0; j < d; ++j) direction[static_cast<size_t>(j)] = rng->Gaussian();

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
  // Degenerate projections (many ties) fall back to an even split.
  if (left.empty() || right.empty()) {
    left.assign(nodes.begin(), nodes.begin() + nodes.size() / 2);
    right.assign(nodes.begin() + nodes.size() / 2, nodes.end());
  }
  RpTreeSplit(points, std::move(left), leaf_size, rng, scratch, heap);
  RpTreeSplit(points, std::move(right), leaf_size, rng, scratch, heap);
}

}  // namespace

Graph KnnGraph(const la::DenseMatrix& points, const KnnOptions& options) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  SGLA_CHECK(options.k > 0) << "KnnGraph needs k > 0";
  NeighborHeap heap(n, options.k);

  if (n <= options.exact_threshold) {
    util::ThreadPool& pool = util::ThreadPool::Global();
    // The full scan costs twice the distance evaluations of the pair loop,
    // so it only wins wall-clock with three or more threads.
    if (pool.num_threads() > 2 && !util::ThreadPool::InParallelRegion()) {
      // Row-parallel exact scan: node i only touches its own heap, and
      // candidates arrive in ascending j — the same per-node offer order as
      // the serial pair loop below (j < i arrives while j's outer loop runs,
      // j > i while i's does), so the heaps are bit-identical to it.
      pool.ParallelFor(0, n, kScanGrain, [&](int64_t lo, int64_t hi) {
        std::vector<double> dist(static_cast<size_t>(n));
        for (int64_t i = lo; i < hi; ++i) {
          la::SquaredDistances(points.Row(i), points.Row(0), n, d,
                               dist.data());
          for (int64_t j = 0; j < n; ++j) {
            if (j != i) heap.Insert(i, j, dist[static_cast<size_t>(j)]);
          }
        }
      });
    } else {
      // Serial path keeps the half-the-distances pair loop.
      std::vector<int64_t> all(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
      std::vector<double> dist(static_cast<size_t>(n));
      PairScan(points.Row(0), all.data(), n, d, dist.data(), &heap);
    }
  } else {
    // RP-forest, one task per tree. Each tree draws from its own RNG stream,
    // split off the seed with a golden-ratio stride (the Rng constructor
    // splitmixes it, so nearby stream ids decorrelate), which makes the
    // trees fully independent of each other and of scheduling. Per-tree
    // candidates land in per-tree heaps and are merged into the shared heap
    // below, each node's heap in ascending tree order, so the result is
    // bit-identical at any thread count — including the serial pool — run
    // after run.
    std::vector<NeighborHeap> tree_heaps;
    tree_heaps.reserve(static_cast<size_t>(options.trees));
    for (int t = 0; t < options.trees; ++t) {
      tree_heaps.emplace_back(n, options.k);
    }
    util::ThreadPool::Global().ParallelFor(
        0, options.trees, 1, [&](int64_t lo, int64_t hi) {
          LeafScratch scratch;
          for (int64_t t = lo; t < hi; ++t) {
            Rng tree_rng(options.seed +
                         0x9e3779b97f4a7c15ull * static_cast<uint64_t>(t + 1));
            std::vector<int64_t> all(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
            RpTreeSplit(points, std::move(all), options.leaf_size, &tree_rng,
                        &scratch, &tree_heaps[static_cast<size_t>(t)]);
          }
        });
    // Cross-tree merge, row-parallel: node i's heap alone takes its offers,
    // in the fixed order (tree, per-tree heap order), so its dedup and
    // eviction decisions are reproducible at any partition.
    util::ThreadPool::Global().ParallelFor(
        0, n, kMergeGrain, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            for (const NeighborHeap& tree_heap : tree_heaps) {
              for (const Candidate& c : tree_heap.Of(i)) {
                heap.Offer(i, c.second, c.first);
              }
            }
          }
        });
  }

  // Union-symmetrize: i~j if j is in i's top-k or vice versa. Sized from the
  // heaps' contents (k may be far above n), then sorted and deduplicated.
  size_t candidates = 0;
  for (int64_t i = 0; i < n; ++i) candidates += heap.Of(i).size();
  std::vector<std::pair<int64_t, int64_t>> pairs;
  pairs.reserve(candidates);
  for (int64_t i = 0; i < n; ++i) {
    for (const Candidate& c : heap.Of(i)) {
      pairs.emplace_back(std::min(i, c.second), std::max(i, c.second));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& [u, v] : pairs) edges.push_back({u, v, 1.0});
  return Graph::FromEdges(n, std::move(edges));
}

}  // namespace graph
}  // namespace sgla
