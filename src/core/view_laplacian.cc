#include "core/view_laplacian.h"

#include <cmath>
#include <string>

#include "graph/laplacian.h"
#include "util/thread_pool.h"

namespace sgla {
namespace core {
namespace {

/// Shape and content checks of one view (global index: graph views first).
Status CheckView(const MultiViewGraph& mvag, int view) {
  const int num_graphs = static_cast<int>(mvag.graph_views().size());
  const int64_t n = mvag.num_nodes();
  if (view < num_graphs) {
    const graph::Graph& g = mvag.graph_views()[static_cast<size_t>(view)];
    if (g.num_nodes() != n) {
      return InvalidArgument("graph view node count mismatch");
    }
    for (const graph::Edge& e : g.edges()) {
      Status valid = ValidateEdge(e.u, e.v, e.weight, n);
      if (!valid.ok()) {
        return InvalidArgument("graph view " + std::to_string(view) + ": " +
                               valid.message());
      }
    }
    return OkStatus();
  }
  const la::DenseMatrix& x =
      mvag.attribute_views()[static_cast<size_t>(view - num_graphs)];
  if (x.rows() != n) {
    return InvalidArgument("attribute view row count mismatch");
  }
  Status valid = ValidateAttributeValues(
      x.data().data(), static_cast<int64_t>(x.data().size()));
  if (!valid.ok()) {
    return InvalidArgument("attribute view " +
                           std::to_string(view - num_graphs) + ": " +
                           valid.message());
  }
  return OkStatus();
}

}  // namespace

Status ValidateEdge(int64_t u, int64_t v, double weight, int64_t n) {
  if (u < 0 || u >= n || v < 0 || v >= n) {
    return InvalidArgument("edge (" + std::to_string(u) + ", " +
                           std::to_string(v) + ") endpoint out of range [0, " +
                           std::to_string(n) + ")");
  }
  if (!std::isfinite(weight) || weight < 0.0) {
    return InvalidArgument("edge (" + std::to_string(u) + ", " +
                           std::to_string(v) + ") weight " +
                           std::to_string(weight) +
                           " is not finite and non-negative");
  }
  return OkStatus();
}

Status ValidateAttributeValues(const double* values, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    if (!std::isfinite(values[i])) {
      return InvalidArgument("attribute value " + std::to_string(values[i]) +
                             " at offset " + std::to_string(i) +
                             " is not finite");
    }
  }
  return OkStatus();
}

Result<std::vector<la::CsrMatrix>> ComputeViewLaplacians(
    const MultiViewGraph& mvag, const graph::KnnOptions& knn) {
  if (mvag.num_views() == 0) {
    return InvalidArgument("multi-view graph has no views");
  }
  for (int v = 0; v < mvag.num_views(); ++v) {
    Status valid = CheckView(mvag, v);
    if (!valid.ok()) return valid;
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
  Status valid = CheckView(mvag, view);
  if (!valid.ok()) return valid;
  if (view < num_graphs) {
    return graph::NormalizedLaplacian(
        mvag.graph_views()[static_cast<size_t>(view)]);
  }
  return graph::NormalizedLaplacian(graph::KnnGraph(
      mvag.attribute_views()[static_cast<size_t>(view - num_graphs)], knn));
}

}  // namespace core
}  // namespace sgla
