#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "la/simd.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sgla {
namespace cluster {
namespace {

/// Points per chunk of the fused assignment pass (the unit of the per-chunk
/// reduction partials).
constexpr int64_t kPointGrain = 256;

/// Seed of the k-means++ seeding stream shared by all restarts.
constexpr uint64_t kSeed = 5150;

/// k-means++ seeding: each next center sampled proportional to D^2. Writes
/// the k centers into `centers` (Reshaped here); `dist2_cache` is the reused
/// D^2 working array.
void PlusPlusInit(const la::DenseMatrix& points, int k, Rng* rng,
                  std::vector<double>* dist2_cache,
                  la::DenseMatrix* centers) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  centers->Reshape(k, d);
  std::vector<double>& dist2 = *dist2_cache;
  dist2.assign(static_cast<size_t>(n), std::numeric_limits<double>::max());
  int64_t first = rng->UniformInt(0, n - 1);
  std::copy(points.Row(first), points.Row(first) + d, centers->Row(0));
  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double d2 =
          la::SquaredDistance(points.Row(i), centers->Row(c - 1), d);
      dist2[static_cast<size_t>(i)] = std::min(dist2[static_cast<size_t>(i)], d2);
      total += dist2[static_cast<size_t>(i)];
    }
    int64_t chosen = n - 1;
    if (total > 0.0) {
      double target = rng->Uniform() * total;
      for (int64_t i = 0; i < n; ++i) {
        target -= dist2[static_cast<size_t>(i)];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng->UniformInt(0, n - 1);
    }
    std::copy(points.Row(chosen), points.Row(chosen) + d, centers->Row(c));
  }
}

void LloydOnce(const la::DenseMatrix& points, int k,
               const KMeansOptions& options, Rng* rng, KMeansWorkspace* ws,
               KMeansResult* result) {
  const int64_t n = points.rows();
  const int64_t d = points.cols();
  PlusPlusInit(points, k, rng, &ws->dist2, &result->centers);
  result->labels.assign(static_cast<size_t>(n), 0);
  result->inertia = 0.0;

  // The fused assignment + accumulation pass keeps one partial per *chunk*
  // (chunking depends only on n and the grain, never on the thread count)
  // and merges partials in chunk-index order, so labels, inertia, and center
  // sums are bit-identical at any thread count, run after run.
  util::ThreadPool& pool = util::ThreadPool::Global();
  const la::simd::KernelTable* table = la::simd::ActiveTable();
  const int64_t chunks = util::ThreadPool::NumChunks(0, n, kPointGrain);
  if (static_cast<int64_t>(ws->sum_partial.size()) < chunks) {
    ws->sum_partial.resize(static_cast<size_t>(chunks));
    ws->count_partial.resize(static_cast<size_t>(chunks));
  }
  for (int64_t c = 0; c < chunks; ++c) {
    la::DenseMatrix& sums = ws->sum_partial[static_cast<size_t>(c)];
    if (sums.rows() != k || sums.cols() != d) sums.Reshape(k, d);
    ws->count_partial[static_cast<size_t>(c)].assign(static_cast<size_t>(k), 0);
  }
  ws->inertia_partial.assign(static_cast<size_t>(chunks), 0.0);
  ws->changed_partial.assign(static_cast<size_t>(chunks), 0);
  ws->counts.assign(static_cast<size_t>(k), 0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const auto assign_chunk = [&](int64_t chunk, int64_t lo, int64_t hi) {
      la::DenseMatrix& sums = ws->sum_partial[static_cast<size_t>(chunk)];
      std::vector<int64_t>& tallies =
          ws->count_partial[static_cast<size_t>(chunk)];
      std::fill(sums.data().begin(), sums.data().end(), 0.0);
      std::fill(tallies.begin(), tallies.end(), 0);
      double inertia = 0.0;
      bool changed = false;
      for (int64_t i = lo; i < hi; ++i) {
        // Fused distance + argmin kernel; DenseMatrix rows are contiguous,
        // so centers.Row(0) spans all k*d center coordinates.
        double best = std::numeric_limits<double>::max();
        int64_t best_center = 0;
        table->nearest_center(points.Row(i), result->centers.Row(0), k, d,
                              &best, &best_center);
        const int32_t best_c = static_cast<int32_t>(best_center);
        if (result->labels[static_cast<size_t>(i)] != best_c) {
          result->labels[static_cast<size_t>(i)] = best_c;
          changed = true;
        }
        inertia += best;
        la::Axpy(1.0, points.Row(i), sums.Row(best_c), d);
        ++tallies[static_cast<size_t>(best_c)];
      }
      ws->inertia_partial[static_cast<size_t>(chunk)] = inertia;
      ws->changed_partial[static_cast<size_t>(chunk)] = changed ? 1 : 0;
    };
    pool.ParallelForChunks(0, n, kPointGrain, assign_chunk);

    bool changed = false;
    result->inertia = 0.0;
    for (int64_t c = 0; c < chunks; ++c) {
      result->inertia += ws->inertia_partial[static_cast<size_t>(c)];
      changed = changed || ws->changed_partial[static_cast<size_t>(c)] != 0;
    }
    // Both exits happen before the center update, so the returned labels,
    // inertia, and centers always describe the same configuration.
    if (!changed && iter > 0) break;
    if (iter + 1 >= options.max_iterations) break;

    la::DenseMatrix& next = ws->next;
    next.Reshape(k, d);
    std::fill(ws->counts.begin(), ws->counts.end(), 0);
    for (int64_t c = 0; c < chunks; ++c) {
      for (int64_t j = 0; j < k * d; ++j) {
        next.data()[static_cast<size_t>(j)] +=
            ws->sum_partial[static_cast<size_t>(c)]
                .data()[static_cast<size_t>(j)];
      }
      for (int cc = 0; cc < k; ++cc) {
        ws->counts[static_cast<size_t>(cc)] +=
            ws->count_partial[static_cast<size_t>(c)][static_cast<size_t>(cc)];
      }
    }
    for (int c = 0; c < k; ++c) {
      if (ws->counts[static_cast<size_t>(c)] == 0) {
        // Re-seed empty clusters at a random point.
        const int64_t pick = rng->UniformInt(0, n - 1);
        std::copy(points.Row(pick), points.Row(pick) + d, next.Row(c));
      } else {
        la::Scale(1.0 / static_cast<double>(ws->counts[static_cast<size_t>(c)]),
                  next.Row(c), d);
      }
    }
    // Swap, not move: `next` keeps a buffer for the following iteration.
    std::swap(result->centers, next);
  }
}

}  // namespace

void KMeansInto(const la::DenseMatrix& points, int k,
                const KMeansOptions& options, KMeansWorkspace* workspace,
                KMeansResult* out) {
  SGLA_CHECK(k > 0) << "KMeans needs k > 0";
  SGLA_CHECK(points.rows() >= k) << "KMeans needs at least k points";
  Rng rng(kSeed);
  out->inertia = std::numeric_limits<double>::max();
  bool have_best = false;
  const int restarts = std::max(1, options.num_init);
  for (int attempt = 0; attempt < restarts; ++attempt) {
    KMeansResult& candidate = workspace->candidate;
    LloydOnce(points, k, options, &rng, workspace, &candidate);
    if (!have_best || candidate.inertia < out->inertia) {
      // Buffer exchange instead of copy/move-assign keeps both slots warm.
      std::swap(*out, candidate);
      have_best = true;
    }
  }
}

KMeansResult KMeans(const la::DenseMatrix& points, int k,
                    const KMeansOptions& options) {
  KMeansWorkspace workspace;
  KMeansResult out;
  KMeansInto(points, k, options, &workspace, &out);
  return out;
}

}  // namespace cluster
}  // namespace sgla
