#include "baselines/fixed_weight.h"

#include "graph/laplacian.h"
#include "la/svd.h"

namespace sgla {
namespace baselines {

Result<core::IntegrationResult> EqualWeights(
    const std::vector<la::CsrMatrix>& views, int k) {
  if (views.empty()) return InvalidArgument("EqualWeights needs views");
  (void)k;
  core::IntegrationResult result;
  result.weights.assign(views.size(), 1.0 / static_cast<double>(views.size()));
  core::LaplacianAggregator aggregator(&views);
  aggregator.BindPattern(&result.laplacian);
  aggregator.AggregateValuesInto(result.weights, &result.laplacian);
  result.weight_history.push_back(result.weights);
  return result;
}

Result<core::IntegrationResult> GraphAgg(const core::MultiViewGraph& mvag,
                                         const graph::KnnOptions& knn) {
  if (mvag.num_views() == 0) return InvalidArgument("GraphAgg needs views");
  graph::Graph merged(mvag.num_nodes());
  for (const graph::Graph& g : mvag.graph_views()) {
    for (const graph::Edge& e : g.edges()) merged.AddEdge(e.u, e.v, e.weight);
  }
  for (const la::DenseMatrix& x : mvag.attribute_views()) {
    const graph::Graph g = graph::KnnGraph(x, knn);
    for (const graph::Edge& e : g.edges()) merged.AddEdge(e.u, e.v, e.weight);
  }
  core::IntegrationResult result;
  result.laplacian = graph::NormalizedLaplacian(merged);
  result.weights.assign(static_cast<size_t>(mvag.num_views()),
                        1.0 / std::max(1, mvag.num_views()));
  return result;
}

Result<la::DenseMatrix> AttributeConcatSvdEmbedding(
    const core::MultiViewGraph& mvag, int dim) {
  if (mvag.attribute_views().empty()) {
    return FailedPrecondition("AttrSVD needs at least one attribute view");
  }
  std::vector<const la::DenseMatrix*> blocks;
  for (const la::DenseMatrix& x : mvag.attribute_views()) blocks.push_back(&x);
  la::DenseMatrix concat = la::HConcat(blocks);
  // Center columns so the top singular directions capture variance, not mean.
  for (int64_t j = 0; j < concat.cols(); ++j) {
    double mean = 0.0;
    for (int64_t i = 0; i < concat.rows(); ++i) mean += concat(i, j);
    mean /= static_cast<double>(concat.rows());
    for (int64_t i = 0; i < concat.rows(); ++i) concat(i, j) -= mean;
  }
  auto svd = la::TruncatedSvd(concat, dim);
  if (!svd.ok()) return svd.status();
  la::DenseMatrix embedding = std::move(svd->u);
  for (int64_t j = 0; j < embedding.cols(); ++j) {
    const double sigma = svd->singular_values[static_cast<size_t>(j)];
    for (int64_t i = 0; i < embedding.rows(); ++i) embedding(i, j) *= sigma;
  }
  return embedding;
}

}  // namespace baselines
}  // namespace sgla
