#include "core/view_laplacian.h"

#include "graph/laplacian.h"
#include "util/thread_pool.h"

namespace sgla {
namespace core {

Result<std::vector<la::CsrMatrix>> ComputeViewLaplacians(
    const MultiViewGraph& mvag, const graph::KnnOptions& knn) {
  if (mvag.num_views() == 0) {
    return InvalidArgument("multi-view graph has no views");
  }
  for (const graph::Graph& g : mvag.graph_views()) {
    if (g.num_nodes() != mvag.num_nodes()) {
      return InvalidArgument("graph view node count mismatch");
    }
  }
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    if (x.rows() != mvag.num_nodes()) {
      return InvalidArgument("attribute view row count mismatch");
    }
  }

  // Attribute views' KNN graphs first, one after another at top level: each
  // KnnGraph parallelizes internally (row-parallel exact scan or one task
  // per RP tree), and both paths are bit-identical to the serial one. Run
  // inside the per-view job below, the KNN would execute inline on one
  // thread while that job held the pool (ThreadPool serializes whole jobs).
  std::vector<graph::Graph> knn_graphs;
  knn_graphs.reserve(mvag.attribute_views().size());
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    knn_graphs.push_back(graph::KnnGraph(x, knn));
  }
  // Then one task per view; each Laplacian is built independently into its
  // own slot, so the output is identical to the serial loop. Order: graph
  // views first, then attribute views (matching the paper's L_1..L_r
  // indexing).
  const int64_t num_graphs = static_cast<int64_t>(mvag.graph_views().size());
  const int64_t num_views = mvag.num_views();
  std::vector<la::CsrMatrix> views(static_cast<size_t>(num_views));
  util::ThreadPool::Global().ParallelFor(
      0, num_views, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t v = lo; v < hi; ++v) {
          views[static_cast<size_t>(v)] = graph::NormalizedLaplacian(
              v < num_graphs
                  ? mvag.graph_views()[static_cast<size_t>(v)]
                  : knn_graphs[static_cast<size_t>(v - num_graphs)]);
        }
      });
  return views;
}

Result<la::CsrMatrix> ComputeViewLaplacian(const MultiViewGraph& mvag,
                                           int view,
                                           const graph::KnnOptions& knn) {
  const int num_graphs = static_cast<int>(mvag.graph_views().size());
  if (view < 0 || view >= mvag.num_views()) {
    return InvalidArgument("view index out of range");
  }
  if (view < num_graphs) {
    const graph::Graph& g = mvag.graph_views()[static_cast<size_t>(view)];
    if (g.num_nodes() != mvag.num_nodes()) {
      return InvalidArgument("graph view node count mismatch");
    }
    return graph::NormalizedLaplacian(g);
  }
  const la::DenseMatrix& x =
      mvag.attribute_views()[static_cast<size_t>(view - num_graphs)];
  if (x.rows() != mvag.num_nodes()) {
    return InvalidArgument("attribute view row count mismatch");
  }
  return graph::NormalizedLaplacian(graph::KnnGraph(x, knn));
}

}  // namespace core
}  // namespace sgla
