#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "baselines/fixed_weight.h"
#include "baselines/lmgec_lite.h"
#include "baselines/magc_lite.h"
#include "baselines/mvagc_lite.h"
#include "baselines/wmsc.h"
#include "cluster/spectral_clustering.h"
#include "core/integration.h"
#include "core/view_laplacian.h"
#include "data/datasets.h"
#include "embed/netmf.h"
#include "embed/sketchne.h"
#include "eval/logreg.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace sgla {
namespace bench {
namespace {

constexpr int64_t kNetMfMaxNodes = 9000;

graph::KnnOptions KnnFor(const std::string& dataset) {
  graph::KnnOptions knn;
  knn.k = data::RecommendedKnnK(dataset, BenchScale());
  return knn;
}

/// Labels from spectral clustering on an integration result.
Result<std::vector<int32_t>> ClusterLaplacian(const la::CsrMatrix& laplacian,
                                              int k) {
  return cluster::SpectralClustering(laplacian, k);
}

/// Embedding from the integrated Laplacian: NetMF below the dense threshold,
/// SketchNe above (the paper's NetMF / SketchNE split, Sec. VI-C).
Result<la::DenseMatrix> EmbedLaplacian(const la::CsrMatrix& laplacian) {
  if (laplacian.rows <= kNetMfMaxNodes) {
    embed::NetMfOptions options;
    return embed::NetMf(laplacian, options);
  }
  embed::SketchNeOptions options;
  return embed::SketchNe(laplacian, options);
}

}  // namespace

double BenchScale() {
  static const double scale = [] {
    const char* env = std::getenv("SGLA_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double parsed = std::atof(env);
    return parsed > 0.0 && parsed <= 1.0 ? parsed : 1.0;
  }();
  return scale;
}

const core::MultiViewGraph& GetDataset(const std::string& name) {
  static std::map<std::string, core::MultiViewGraph> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  Result<core::MultiViewGraph> made = data::MakeDataset(name, BenchScale());
  SGLA_CHECK(made.ok()) << made.status().ToString();
  return cache.emplace(name, std::move(*made)).first->second;
}

const std::vector<la::CsrMatrix>& GetViewLaplacians(const std::string& name,
                                                    double* build_seconds) {
  struct Entry {
    std::vector<la::CsrMatrix> views;
    double seconds = 0.0;
  };
  static std::map<std::string, Entry> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    const core::MultiViewGraph& mvag = GetDataset(name);
    Stopwatch stopwatch;
    auto views = core::ComputeViewLaplacians(mvag, KnnFor(name));
    SGLA_CHECK(views.ok()) << views.status().ToString();
    Entry entry;
    entry.seconds = stopwatch.Seconds();
    entry.views = std::move(*views);
    it = cache.emplace(name, std::move(entry)).first;
  }
  if (build_seconds != nullptr) *build_seconds = it->second.seconds;
  return it->second.views;
}

std::vector<std::string> ClusteringMethods() {
  return {"WMSC",   "MvAGC", "MAGC",      "LMGEC", "Equal-w",
          "Graph-Agg", "Best-1view", "SGLA",  "SGLA+"};
}

ClusteringRun RunClustering(const std::string& method,
                            const std::string& dataset) {
  ClusteringRun run;
  const core::MultiViewGraph& mvag = GetDataset(dataset);
  const int k = mvag.num_clusters();
  Stopwatch stopwatch;

  auto finish_labels = [&](Result<std::vector<int32_t>> labels) {
    if (!labels.ok()) {
      run.ok = false;
      run.note = labels.status().ToString();
      return;
    }
    run.seconds = stopwatch.Seconds();
    run.quality = eval::EvaluateClustering(*labels, mvag.labels());
    run.ok = true;
  };

  if (method == "SGLA" || method == "SGLA+" || method == "Equal-w" ||
      method == "Best-1view" || method == "WMSC") {
    double laplacian_seconds = 0.0;
    const std::vector<la::CsrMatrix>& views =
        GetViewLaplacians(dataset, &laplacian_seconds);
    stopwatch.Restart();
    if (method == "SGLA") {
      auto integration = core::Sgla(views, k);
      if (!integration.ok()) {
        run.note = integration.status().ToString();
        return run;
      }
      run.lanczos_vectors = integration->lanczos_iterations;
      finish_labels(ClusterLaplacian(integration->laplacian, k));
    } else if (method == "SGLA+") {
      auto integration = core::SglaPlus(views, k);
      if (!integration.ok()) {
        run.note = integration.status().ToString();
        return run;
      }
      run.lanczos_vectors = integration->lanczos_iterations;
      finish_labels(ClusterLaplacian(integration->laplacian, k));
    } else if (method == "Equal-w") {
      auto integration = baselines::EqualWeights(views, k);
      if (!integration.ok()) {
        run.note = integration.status().ToString();
        return run;
      }
      finish_labels(ClusterLaplacian(integration->laplacian, k));
    } else if (method == "Best-1view") {
      // Oracle over single views: best accuracy any one view achieves.
      ClusteringRun best;
      for (size_t v = 0; v < views.size(); ++v) {
        auto labels = ClusterLaplacian(views[v], k);
        if (!labels.ok()) continue;
        eval::ClusteringQuality q = eval::EvaluateClustering(*labels, mvag.labels());
        if (!best.ok || q.accuracy > best.quality.accuracy) {
          best.ok = true;
          best.quality = q;
        }
      }
      best.seconds = stopwatch.Seconds() + laplacian_seconds;
      if (!best.ok) best.note = "all views failed";
      return best;
    } else {  // WMSC
      auto wmsc = baselines::Wmsc(views, k);
      if (!wmsc.ok()) {
        run.note = wmsc.status().ToString();
        return run;
      }
      run.seconds = stopwatch.Seconds() + laplacian_seconds;
      run.quality = eval::EvaluateClustering(wmsc->labels, mvag.labels());
      run.ok = true;
      return run;
    }
    run.seconds += laplacian_seconds;
    return run;
  }

  if (method == "Graph-Agg") {
    auto integration = baselines::GraphAgg(mvag, KnnFor(dataset));
    if (!integration.ok()) {
      run.note = integration.status().ToString();
      return run;
    }
    finish_labels(ClusterLaplacian(integration->laplacian, k));
    return run;
  }
  if (method == "MvAGC") {
    auto result = baselines::MvagcLite(mvag);
    if (!result.ok()) {
      run.note = result.status().ToString();
      return run;
    }
    run.seconds = stopwatch.Seconds();
    run.quality = eval::EvaluateClustering(result->labels, mvag.labels());
    run.ok = true;
    return run;
  }
  if (method == "MAGC") {
    auto result = baselines::MagcLite(mvag);
    if (!result.ok()) {
      run.note = result.status().code() == StatusCode::kResourceExhausted
                     ? "OOM (n^2 consensus)"
                     : result.status().ToString();
      return run;
    }
    run.seconds = stopwatch.Seconds();
    run.quality = eval::EvaluateClustering(result->labels, mvag.labels());
    run.ok = true;
    return run;
  }
  if (method == "LMGEC") {
    auto result = baselines::LmgecLite(mvag);
    if (!result.ok()) {
      run.note = result.status().ToString();
      return run;
    }
    run.seconds = stopwatch.Seconds();
    run.quality = eval::EvaluateClustering(result->labels, mvag.labels());
    run.ok = true;
    return run;
  }
  run.note = "unknown method";
  return run;
}

std::vector<std::string> EmbeddingMethods() {
  return {"AttrSVD", "WMSC-sp", "MvAGC", "LMGEC", "Equal-w",
          "Graph-Agg", "SGLA",  "SGLA+"};
}

double TrainFraction(const std::string& dataset) {
  // Paper: 20% of labels, 1% on the (million-node) MAG datasets. The scaled
  // MAG stand-ins use 5% so every class keeps a few training nodes.
  if (dataset == "mag-eng" || dataset == "mag-phy") return 0.05;
  return 0.2;
}

EmbeddingRun RunEmbedding(const std::string& method,
                          const std::string& dataset) {
  EmbeddingRun run;
  const core::MultiViewGraph& mvag = GetDataset(dataset);
  const int k = mvag.num_clusters();
  Stopwatch stopwatch;
  Result<la::DenseMatrix> embedding(la::DenseMatrix{});
  double extra_seconds = 0.0;

  if (method == "SGLA" || method == "SGLA+" || method == "Equal-w") {
    double laplacian_seconds = 0.0;
    const std::vector<la::CsrMatrix>& views =
        GetViewLaplacians(dataset, &laplacian_seconds);
    extra_seconds = laplacian_seconds;
    stopwatch.Restart();
    Result<core::IntegrationResult> integration =
        method == "SGLA"    ? core::Sgla(views, k)
        : method == "SGLA+" ? core::SglaPlus(views, k)
                            : baselines::EqualWeights(views, k);
    if (!integration.ok()) {
      run.note = integration.status().ToString();
      return run;
    }
    embedding = EmbedLaplacian(integration->laplacian);
  } else if (method == "Graph-Agg") {
    auto integration = baselines::GraphAgg(mvag, KnnFor(dataset));
    if (!integration.ok()) {
      run.note = integration.status().ToString();
      return run;
    }
    embedding = EmbedLaplacian(integration->laplacian);
  } else if (method == "WMSC-sp") {
    double laplacian_seconds = 0.0;
    const std::vector<la::CsrMatrix>& views =
        GetViewLaplacians(dataset, &laplacian_seconds);
    extra_seconds = laplacian_seconds;
    stopwatch.Restart();
    auto wmsc = baselines::Wmsc(views, k);
    if (!wmsc.ok()) {
      run.note = wmsc.status().ToString();
      return run;
    }
    embedding = std::move(wmsc->embedding);
  } else if (method == "MvAGC") {
    auto result = baselines::MvagcLite(mvag);
    if (!result.ok()) {
      run.note = result.status().ToString();
      return run;
    }
    embedding = std::move(result->embedding);
  } else if (method == "LMGEC") {
    auto result = baselines::LmgecLite(mvag);
    if (!result.ok()) {
      run.note = result.status().ToString();
      return run;
    }
    embedding = std::move(result->embedding);
  } else if (method == "AttrSVD") {
    embedding = baselines::AttributeConcatSvdEmbedding(mvag, 64);
  } else {
    run.note = "unknown method";
    return run;
  }

  if (!embedding.ok()) {
    run.note = embedding.status().ToString();
    return run;
  }
  run.seconds = stopwatch.Seconds() + extra_seconds;
  auto quality = eval::EvaluateEmbedding(*embedding, mvag.labels(), k,
                                         TrainFraction(dataset));
  if (!quality.ok()) {
    run.note = quality.status().ToString();
    return run;
  }
  run.macro_f1 = quality->macro_f1;
  run.micro_f1 = quality->micro_f1;
  run.ok = true;
  return run;
}

std::vector<double> OverallRanks(
    const std::vector<std::vector<std::vector<double>>>& metric_values) {
  // metric_values[dataset][metric][method]; NaN marks a failed run.
  std::vector<double> rank_sum;
  int64_t cells = 0;
  for (const auto& dataset : metric_values) {
    for (const auto& metric : dataset) {
      const size_t methods = metric.size();
      if (rank_sum.empty()) rank_sum.assign(methods, 0.0);
      std::vector<size_t> order(methods);
      for (size_t i = 0; i < methods; ++i) order[i] = i;
      auto value_of = [&](size_t m) {
        return std::isnan(metric[m]) ? -1e18 : metric[m];
      };
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return value_of(a) > value_of(b);
      });
      // Tied values share the average of the positions they span, so method
      // order never breaks ties.
      size_t pos = 0;
      while (pos < methods) {
        size_t end = pos + 1;
        while (end < methods &&
               value_of(order[end]) == value_of(order[pos])) {
          ++end;
        }
        const double shared_rank =
            static_cast<double>(pos + 1 + end) / 2.0;  // avg of pos+1..end
        for (size_t i = pos; i < end; ++i) rank_sum[order[i]] += shared_rank;
        pos = end;
      }
      ++cells;
    }
  }
  for (double& r : rank_sum) r /= std::max<int64_t>(1, cells);
  return rank_sum;
}

}  // namespace bench
}  // namespace sgla
