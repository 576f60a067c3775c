#include "core/aggregator.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

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

/// Row-parallel weighted scatter, one σ window per chunk: window [lo, hi)
/// owns out[window(lo, hi)], which it zero-fills before adding
/// weights[v] * views[v]'s nonzeros of rows [lo, hi) through maps[v]
/// (offsets from the window's first slot). Every output slot belongs to one
/// window, and per slot the view contributions arrive in ascending view
/// order, one rounded multiply and one rounded add each (scatter_axpy is
/// element-wise in every ISA variant): the result is bit-identical at any
/// thread count and on every ISA.
template <typename Window>
void ScatterWindows(const std::vector<la::CsrMatrix>& views,
                    const std::vector<double>& weights,
                    const std::vector<std::vector<int32_t>>& maps,
                    double* out, Window window) {
  const la::simd::KernelTable* table = la::simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      0, views[0].rows, la::kSellSortWindow, [&](int64_t lo, int64_t hi) {
        const std::pair<int64_t, int64_t> range = window(lo, hi);
        double* first = out + range.first;
        std::fill(first, out + range.second, 0.0);
        for (size_t v = 0; v < views.size(); ++v) {
          const double w = weights[v];
          if (w == 0.0) continue;
          const la::CsrMatrix& view = views[v];
          const int64_t begin = view.row_ptr[static_cast<size_t>(lo)];
          const int64_t end = view.row_ptr[static_cast<size_t>(hi)];
          table->scatter_axpy(w, view.values.data() + begin,
                              maps[v].data() + begin, end - begin, first);
        }
      });
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
  // view the union slot of each of its nonzeros, counted from the first slot
  // of the row's σ window.
  pattern_.rows = rows;
  pattern_.cols = cols;
  pattern_.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  csr_scatter_.assign(views->size(), {});
  sell_scatter_.assign(views->size(), {});
  for (size_t v = 0; v < views->size(); ++v) {
    csr_scatter_[v].resize(static_cast<size_t>((*views)[v].nnz()));
    sell_scatter_[v].resize(static_cast<size_t>((*views)[v].nnz()));
  }
  std::vector<int64_t> cursor(views->size());
  int64_t window_first = 0;  // first union slot of row r's σ window
  for (int64_t r = 0; r < rows; ++r) {
    if (r % la::kSellSortWindow == 0) {
      window_first = static_cast<int64_t>(pattern_.col_idx.size());
    }
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
      const int64_t offset =
          static_cast<int64_t>(pattern_.col_idx.size()) - window_first;
      for (size_t v = 0; v < views->size(); ++v) {
        int64_t& p = cursor[v];
        if (p < (*views)[v].row_ptr[static_cast<size_t>(r) + 1] &&
            (*views)[v].col_idx[static_cast<size_t>(p)] == next_col) {
          csr_scatter_[v][static_cast<size_t>(p)] =
              static_cast<int32_t>(offset);
          ++p;
        }
      }
      pattern_.col_idx.push_back(next_col);
    }
    pattern_.row_ptr[static_cast<size_t>(r) + 1] =
        static_cast<int64_t>(pattern_.col_idx.size());
  }
  // The pattern lives as long as the graph: drop push_back's growth slack
  // (up to ~1 MB at n = 8000).
  pattern_.col_idx.shrink_to_fit();

  // The SELL maps follow from the CSR ones: union entry j of a row lives at
  // its slot's base + j * kSellLanes. Each σ window holds whole rows and
  // whole slices, so the windows convert in parallel.
  la::BuildSellLayout(pattern_, &sell_);
  util::ThreadPool::Global().ParallelFor(
      0, rows, la::kSellSortWindow, [this](int64_t lo, int64_t hi) {
        const int64_t csr_first = pattern_.row_ptr[static_cast<size_t>(lo)];
        const int64_t sell_first = la::SellSlotBase(sell_, lo);
        // A window's SELL slots outnumber its union CSR slots, so this one
        // check covers both maps' offsets.
        const int64_t slice_end = (hi + la::kSellLanes - 1) / la::kSellLanes;
        const int64_t window_slots =
            sell_.slice_ptr[static_cast<size_t>(slice_end)] * la::kSellLanes -
            sell_first;
        SGLA_CHECK(window_slots <= INT32_MAX)
            << "aggregator: a " << la::kSellSortWindow
            << "-row window exceeds 2^31 slots";
        for (int64_t slot = lo; slot < hi; ++slot) {
          const int64_t row = sell_.perm[static_cast<size_t>(slot)];
          const int64_t base = la::SellSlotBase(sell_, slot) - sell_first;
          const int64_t row_first =
              pattern_.row_ptr[static_cast<size_t>(row)] - csr_first;
          for (size_t v = 0; v < views_->size(); ++v) {
            const la::CsrMatrix& view = (*views_)[v];
            const int64_t end = view.row_ptr[static_cast<size_t>(row) + 1];
            for (int64_t p = view.row_ptr[static_cast<size_t>(row)]; p < end;
                 ++p) {
              const int64_t j = csr_scatter_[v][static_cast<size_t>(p)] -
                                row_first;
              sell_scatter_[v][static_cast<size_t>(p)] =
                  static_cast<int32_t>(base + j * la::kSellLanes);
            }
          }
        }
      });
}

LaplacianAggregator::LaplacianAggregator(
    const std::vector<la::CsrMatrix>* views, const LaplacianAggregator& donor)
    : views_(views),
      pattern_(donor.pattern_),
      sell_(donor.sell_),
      csr_scatter_(donor.csr_scatter_),
      sell_scatter_(donor.sell_scatter_),
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

void LaplacianAggregator::BindPattern(la::CsrMatrix* out) const {
  out->rows = pattern_.rows;
  out->cols = pattern_.cols;
  out->row_ptr = pattern_.row_ptr;  // assign-reuses out's capacity
  out->col_idx = pattern_.col_idx;
  out->values.assign(pattern_.col_idx.size(), 0.0);
}

void LaplacianAggregator::AggregateValuesInto(
    const std::vector<double>& weights, la::CsrMatrix* out) const {
  SGLA_CHECK(weights.size() == views_->size())
      << "aggregator weight count mismatch";
  SGLA_CHECK(out->rows == pattern_.rows &&
             out->values.size() == pattern_.col_idx.size())
      << "AggregateValuesInto on an unbound output buffer";
  ScatterWindows(*views_, weights, csr_scatter_, out->values.data(),
                 [this](int64_t lo, int64_t hi) {
                   return std::make_pair(
                       pattern_.row_ptr[static_cast<size_t>(lo)],
                       pattern_.row_ptr[static_cast<size_t>(hi)]);
                 });
}

void LaplacianAggregator::AggregateSellValuesInto(
    const std::vector<double>& weights, std::vector<double>* values) const {
  SGLA_CHECK(weights.size() == views_->size())
      << "aggregator weight count mismatch";
  values->resize(static_cast<size_t>(sell_.num_slots()));
  // A window's range covers its slices whole: padding and ghost lanes too.
  ScatterWindows(*views_, weights, sell_scatter_, values->data(),
                 [this](int64_t lo, int64_t hi) {
                   const int64_t slice_end =
                       (hi + la::kSellLanes - 1) / la::kSellLanes;
                   return std::make_pair(
                       la::SellSlotBase(sell_, lo),
                       sell_.slice_ptr[static_cast<size_t>(slice_end)] *
                           la::kSellLanes);
                 });
}

}  // namespace core
}  // namespace sgla
