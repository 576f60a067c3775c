#include "graph/laplacian.h"

#include <cmath>

#include "util/logging.h"

namespace sgla {
namespace graph {
namespace {

/// Symmetrized, coalesced adjacency triplets plus per-node degrees.
void BuildAdjacency(const Graph& g, std::vector<la::Triplet>* entries,
                    std::vector<double>* degrees) {
  entries->clear();
  entries->reserve(static_cast<size_t>(g.num_edges()) * 2);
  for (const Edge& e : g.edges()) {
    SGLA_CHECK(e.u >= 0 && e.u < g.num_nodes() && e.v >= 0 &&
               e.v < g.num_nodes())
        << "edge endpoint out of range";
    if (e.u == e.v) continue;
    entries->push_back({e.u, e.v, e.weight});
    entries->push_back({e.v, e.u, e.weight});
  }
  degrees->assign(static_cast<size_t>(g.num_nodes()), 0.0);
}

}  // namespace

la::CsrMatrix NormalizedAdjacency(const Graph& g) {
  std::vector<la::Triplet> entries;
  std::vector<double> degrees;
  BuildAdjacency(g, &entries, &degrees);
  la::CsrMatrix adjacency =
      la::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(entries));
  for (int64_t r = 0; r < adjacency.rows; ++r) {
    const int64_t end = adjacency.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = adjacency.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      degrees[static_cast<size_t>(r)] += adjacency.values[static_cast<size_t>(p)];
    }
  }
  std::vector<double> inv_sqrt(degrees.size(), 0.0);
  for (size_t i = 0; i < degrees.size(); ++i) {
    if (degrees[i] > 0.0) inv_sqrt[i] = 1.0 / std::sqrt(degrees[i]);
  }
  for (int64_t r = 0; r < adjacency.rows; ++r) {
    const int64_t end = adjacency.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = adjacency.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      adjacency.values[static_cast<size_t>(p)] *=
          inv_sqrt[static_cast<size_t>(r)] *
          inv_sqrt[static_cast<size_t>(
              adjacency.col_idx[static_cast<size_t>(p)])];
    }
  }
  return adjacency;
}

la::CsrMatrix NormalizedLaplacian(const Graph& g) {
  const la::CsrMatrix normalized = NormalizedAdjacency(g);
  // L = I - \hat{A}: negate off-diagonal, insert 1 on the diagonal of every
  // non-isolated node. \hat{A}'s rows are already sorted and hold no
  // diagonal (BuildAdjacency drops self-loops), so the unit diagonal slots
  // in row by row at its sorted position. Values are stored as 0.0 + value,
  // exactly what FromTriplets' coalescing sum stores (it turns -0.0 into
  // +0.0).
  la::CsrMatrix laplacian;
  laplacian.rows = normalized.rows;
  laplacian.cols = normalized.cols;
  laplacian.row_ptr.assign(static_cast<size_t>(normalized.rows) + 1, 0);
  const size_t capacity = static_cast<size_t>(normalized.nnz()) +
                          static_cast<size_t>(normalized.rows);
  laplacian.col_idx.reserve(capacity);
  laplacian.values.reserve(capacity);
  for (int64_t r = 0; r < normalized.rows; ++r) {
    const int64_t begin = normalized.row_ptr[static_cast<size_t>(r)];
    const int64_t end = normalized.row_ptr[static_cast<size_t>(r) + 1];
    bool diagonal_pending = begin < end;
    for (int64_t p = begin; p < end; ++p) {
      const int64_t col = normalized.col_idx[static_cast<size_t>(p)];
      if (diagonal_pending && col > r) {
        laplacian.col_idx.push_back(r);
        laplacian.values.push_back(1.0);
        diagonal_pending = false;
      }
      const double off_diagonal = -normalized.values[static_cast<size_t>(p)];
      laplacian.col_idx.push_back(col);
      laplacian.values.push_back(0.0 + off_diagonal);
    }
    if (diagonal_pending) {
      laplacian.col_idx.push_back(r);
      laplacian.values.push_back(1.0);
    }
    laplacian.row_ptr[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(laplacian.col_idx.size());
  }
  return laplacian;
}

}  // namespace graph
}  // namespace sgla
