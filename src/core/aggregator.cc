#include "core/aggregator.h"

#include <algorithm>
#include <atomic>

#include "la/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace core {
namespace {

uint64_t NextPatternId() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views)
    : views_(views), pattern_id_(NextPatternId()) {
  SGLA_CHECK(views != nullptr && !views->empty())
      << "LaplacianAggregator needs at least one view";
  const int64_t rows = (*views)[0].rows;
  const int64_t cols = (*views)[0].cols;
  for (const la::CsrMatrix& v : *views) {
    SGLA_CHECK(v.rows == rows && v.cols == cols)
        << "aggregator view shape mismatch";
  }

  // Build the union pattern with a row-wise k-way merge, recording for every
  // view the destination slot of each of its nonzeros.
  pattern_.rows = rows;
  pattern_.cols = cols;
  pattern_.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  scatter_.assign(views->size(), {});
  for (size_t v = 0; v < views->size(); ++v) {
    scatter_[v].resize(static_cast<size_t>((*views)[v].nnz()));
  }
  std::vector<int64_t> cursor(views->size());
  for (int64_t r = 0; r < rows; ++r) {
    for (size_t v = 0; v < views->size(); ++v) {
      cursor[v] = (*views)[v].row_ptr[static_cast<size_t>(r)];
    }
    while (true) {
      int64_t next_col = INT64_MAX;
      for (size_t v = 0; v < views->size(); ++v) {
        if (cursor[v] < (*views)[v].row_ptr[static_cast<size_t>(r) + 1]) {
          next_col = std::min(
              next_col, (*views)[v].col_idx[static_cast<size_t>(cursor[v])]);
        }
      }
      if (next_col == INT64_MAX) break;
      const int64_t slot = static_cast<int64_t>(pattern_.col_idx.size());
      for (size_t v = 0; v < views->size(); ++v) {
        int64_t& p = cursor[v];
        if (p < (*views)[v].row_ptr[static_cast<size_t>(r) + 1] &&
            (*views)[v].col_idx[static_cast<size_t>(p)] == next_col) {
          scatter_[v][static_cast<size_t>(p)] = slot;
          ++p;
        }
      }
      pattern_.col_idx.push_back(next_col);
    }
    pattern_.row_ptr[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(pattern_.col_idx.size());
  }
  pattern_.values.assign(pattern_.col_idx.size(), 0.0);
}

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views, const LaplacianAggregator& donor)
    : views_(views),
      pattern_(donor.pattern_),
      scatter_(donor.scatter_),
      pattern_id_(donor.pattern_id_) {
  SGLA_CHECK(views != nullptr && views->size() == donor.views_->size())
      << "pattern-donor aggregator view count mismatch";
  for (size_t v = 0; v < views->size(); ++v) {
    const la::CsrMatrix& mine = (*views)[v];
    const la::CsrMatrix& theirs = (*donor.views_)[v];
    SGLA_CHECK(mine.rows == theirs.rows && mine.cols == theirs.cols &&
               mine.row_ptr == theirs.row_ptr && mine.col_idx == theirs.col_idx)
        << "pattern-donor aggregator: view " << v
        << " changed sparsity (value-only updates must keep every pattern)";
  }
}

void LaplacianAggregator::FillValues(const std::vector<double>& weights,
                                     double* values) const {
  SGLA_CHECK(weights.size() == views_->size())
      << "aggregator weight count mismatch";
  // Row-parallel over the union pattern: every union slot belongs to exactly
  // one row, and per slot the view contributions arrive in ascending view
  // order — the same per-slot summation order as the serial view-major loop,
  // so the result is bit-identical at any thread count.
  constexpr int64_t kRowGrain = 512;
  const la::simd::KernelTable* table = la::simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      0, pattern_.rows, kRowGrain,
      [&, values, table](int64_t lo, int64_t hi) {
        std::fill(values + pattern_.row_ptr[static_cast<size_t>(lo)],
                  values + pattern_.row_ptr[static_cast<size_t>(hi)], 0.0);
        for (size_t v = 0; v < views_->size(); ++v) {
          const double w = weights[v];
          if (w == 0.0) continue;
          const la::CsrMatrix& view = (*views_)[v];
          const std::vector<int64_t>& map = scatter_[v];
          const int64_t begin = view.row_ptr[static_cast<size_t>(lo)];
          const int64_t end = view.row_ptr[static_cast<size_t>(hi)];
          // scatter_axpy is element-wise (one rounded multiply + one
          // rounded add per slot in every ISA variant), so aggregation
          // values are bit-identical across all ISA paths.
          table->scatter_axpy(w, view.values.data() + begin,
                              map.data() + begin, end - begin, values);
        }
      });
}

void LaplacianAggregator::BindPattern(la::CsrMatrix* out) const {
  out->rows = pattern_.rows;
  out->cols = pattern_.cols;
  out->row_ptr = pattern_.row_ptr;  // assign-reuses out's capacity
  out->col_idx = pattern_.col_idx;
  out->values.assign(pattern_.col_idx.size(), 0.0);
}

void LaplacianAggregator::AggregateValuesInto(
    const std::vector<double>& weights, la::CsrMatrix* out) const {
  SGLA_CHECK(out->rows == pattern_.rows &&
             out->values.size() == pattern_.values.size())
      << "AggregateValuesInto on an unbound output buffer";
  FillValues(weights, out->values.data());
}

}  // namespace core
}  // namespace sgla
