#include "la/sparse.h"

#include <algorithm>
#include <numeric>

#include "la/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace sgla {
namespace la {

static_assert(kSellSortWindow % kSellLanes == 0,
              "slices must tile the sort window exactly");

namespace {

// Rows per chunk for the row-parallel kernels. Every row is produced by
// exactly one chunk with the same inner loop as the serial code, so results
// are bit-identical to a serial run at any thread count.
constexpr int64_t kSpmvGrain = 512;
constexpr int64_t kSpmvDenseGrain = 128;
constexpr int64_t kMergeGrain = 512;
// Slices per chunk of the SELL kernel: 64 slices x 8 lanes = the same 512
// rows per chunk as kSpmvGrain.
constexpr int64_t kSellSliceGrain = kSpmvGrain / kSellLanes;

/// Row-wise k-way merge of the views' sorted column lists over rows
/// [lo, hi): calls emit(row, col, sum of weights[v] * value_v) for every
/// union slot, rows ascending, columns ascending within a row, summing view
/// contributions in ascending view order. The single source of the merge
/// semantics for all WeightedSum paths (serial append, parallel count,
/// parallel fill), which keeps them trivially identical.
template <typename Emit>
void MergeWeightedRows(const std::vector<const CsrMatrix*>& views,
                       const std::vector<double>& weights, int64_t lo,
                       int64_t hi, Emit&& emit) {
  std::vector<int64_t> cursor(views.size());
  for (int64_t r = lo; r < hi; ++r) {
    for (size_t v = 0; v < views.size(); ++v) {
      cursor[v] = views[v]->row_ptr[static_cast<size_t>(r)];
    }
    while (true) {
      int64_t next_col = INT64_MAX;
      for (size_t v = 0; v < views.size(); ++v) {
        if (cursor[v] < views[v]->row_ptr[static_cast<size_t>(r) + 1]) {
          next_col = std::min(
              next_col, views[v]->col_idx[static_cast<size_t>(cursor[v])]);
        }
      }
      if (next_col == INT64_MAX) break;
      double sum = 0.0;
      for (size_t v = 0; v < views.size(); ++v) {
        int64_t& p = cursor[v];
        if (p < views[v]->row_ptr[static_cast<size_t>(r) + 1] &&
            views[v]->col_idx[static_cast<size_t>(p)] == next_col) {
          sum += weights[v] * views[v]->values[static_cast<size_t>(p)];
          ++p;
        }
      }
      emit(r, next_col, sum);
    }
  }
}

/// Calls fn(at, p) for every stored entry of slices [slice_begin,
/// slice_end) of `sell`, the layout of `m`: CSR entry p sits at storage
/// index `at`. Padding slots and ghost lanes are skipped.
template <typename Fn>
void ForEachSellEntry(const CsrMatrix& m, const SellMatrix& sell,
                      int64_t slice_begin, int64_t slice_end, Fn&& fn) {
  for (int64_t slot = slice_begin * kSellLanes; slot < slice_end * kSellLanes;
       ++slot) {
    const int64_t row = sell.perm[static_cast<size_t>(slot)];
    if (row < 0) continue;  // ghost lane in the final slice
    const int64_t base = SellSlotBase(sell, slot);
    const int64_t start = m.row_ptr[static_cast<size_t>(row)];
    const int64_t len = sell.row_len[static_cast<size_t>(slot)];
    for (int64_t j = 0; j < len; ++j) fn(base + j * kSellLanes, start + j);
  }
}

}  // namespace

CsrMatrix FromTriplets(int64_t rows, int64_t cols,
                       std::vector<Triplet> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  size_t i = 0;
  while (i < entries.size()) {
    const int64_t r = entries[i].row;
    const int64_t c = entries[i].col;
    SGLA_CHECK(r >= 0 && r < rows && c >= 0 && c < cols)
        << "triplet out of range: (" << r << "," << c << ")";
    double sum = 0.0;
    while (i < entries.size() && entries[i].row == r && entries[i].col == c) {
      sum += entries[i].value;
      ++i;
    }
    m.col_idx.push_back(c);
    m.values.push_back(sum);
    ++m.row_ptr[static_cast<size_t>(r) + 1];
  }
  for (int64_t r = 0; r < rows; ++r) {
    m.row_ptr[static_cast<size_t>(r) + 1] += m.row_ptr[static_cast<size_t>(r)];
  }
  return m;
}

void Spmv(const CsrMatrix& m, const double* x, double* y) {
  // Each chunk hands its row range to the active ISA's row kernel; every
  // row's dot product is self-contained, so any row partition reproduces
  // the same bits within one ISA path.
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      0, m.rows, kSpmvGrain, [&m, x, y, table](int64_t lo, int64_t hi) {
        table->spmv_rows(m.row_ptr.data(), m.col_idx.data(), m.values.data(),
                         x, y + lo, lo, hi);
      });
}

void BuildSellLayout(const CsrMatrix& m, SellMatrix* out) {
  SGLA_CHECK(m.cols <= INT32_MAX)
      << "SELL column indices are int32; " << m.cols << " columns";
  out->rows = m.rows;
  out->cols = m.cols;
  out->values.clear();
  const int64_t num_slices = (m.rows + kSellLanes - 1) / kSellLanes;
  const int64_t num_slots = num_slices * kSellLanes;
  out->perm.resize(static_cast<size_t>(num_slots));
  out->row_len.resize(static_cast<size_t>(num_slots));
  out->slice_ptr.assign(static_cast<size_t>(num_slices) + 1, 0);
  const auto nnz_of = [&m](int64_t r) {
    return m.row_ptr[static_cast<size_t>(r) + 1] -
           m.row_ptr[static_cast<size_t>(r)];
  };
  // A window's rows fill exactly its own slices, so both passes run one σ
  // window per chunk and write disjoint slots.
  util::ThreadPool& pool = util::ThreadPool::Global();

  // Pass 1: the row permutation — descending nnz within the window,
  // ascending row index among equals (the tie-break makes in-place
  // std::sort produce exactly the stable order) — the unpadded lengths, and
  // each slice's width, parked in slice_ptr[s + 1] until the prefix sum.
  pool.ParallelFor(0, m.rows, kSellSortWindow, [&](int64_t lo, int64_t hi) {
    int64_t* perm = out->perm.data();
    std::iota(perm + lo, perm + hi, lo);
    std::sort(perm + lo, perm + hi, [&nnz_of](int64_t a, int64_t b) {
      const int64_t na = nnz_of(a);
      const int64_t nb = nnz_of(b);
      return na != nb ? na > nb : a < b;
    });
    const int64_t slice_end = (hi + kSellLanes - 1) / kSellLanes;
    std::fill(perm + hi, perm + slice_end * kSellLanes, int64_t{-1});
    for (int64_t s = lo / kSellLanes; s < slice_end; ++s) {
      int64_t width = 0;
      for (int64_t l = 0; l < kSellLanes; ++l) {
        const int64_t slot = s * kSellLanes + l;
        const int64_t row = perm[slot];
        const int64_t len = row < 0 ? 0 : nnz_of(row);
        out->row_len[static_cast<size_t>(slot)] = len;
        width = std::max(width, len);
      }
      out->slice_ptr[static_cast<size_t>(s) + 1] = width;
    }
  });
  for (int64_t s = 0; s < num_slices; ++s) {
    out->slice_ptr[static_cast<size_t>(s) + 1] +=
        out->slice_ptr[static_cast<size_t>(s)];
  }

  // Pass 2: column indices, 0 in padding.
  out->col_idx.resize(static_cast<size_t>(
      out->slice_ptr[static_cast<size_t>(num_slices)] * kSellLanes));
  pool.ParallelFor(0, m.rows, kSellSortWindow, [&](int64_t lo, int64_t hi) {
    const int64_t slice_begin = lo / kSellLanes;
    const int64_t slice_end = (hi + kSellLanes - 1) / kSellLanes;
    int32_t* col = out->col_idx.data();
    std::fill(col + SellSlotBase(*out, lo),
              col + out->slice_ptr[static_cast<size_t>(slice_end)] * kSellLanes,
              int32_t{0});
    ForEachSellEntry(m, *out, slice_begin, slice_end,
                     [&m, col](int64_t at, int64_t p) {
                       col[at] = static_cast<int32_t>(
                           m.col_idx[static_cast<size_t>(p)]);
                     });
  });
}

void BuildSellPattern(const CsrMatrix& m, SellMatrix* out) {
  BuildSellLayout(m, out);
  out->values.assign(out->col_idx.size(), 0.0);
  double* values = out->values.data();
  ForEachSellEntry(m, *out, 0, out->num_slices(),
                   [&m, values](int64_t at, int64_t p) {
                     values[at] = m.values[static_cast<size_t>(p)];
                   });
}

void SellSpmv(const SellMatrix& m, const double* x, double* y) {
  SellSpmv(m, m.values.data(), x, y);
}

void SellSpmv(const SellMatrix& m, const double* values, const double* x,
              double* y) {
  const simd::KernelTable* table = simd::ActiveTable();
  util::ThreadPool::Global().ParallelFor(
      0, m.num_slices(), kSellSliceGrain,
      [&m, values, x, y, table](int64_t lo, int64_t hi) {
        table->sell_spmv(m.slice_ptr.data(), m.col_idx.data(), values,
                         m.row_len.data(), m.perm.data(), x, y, lo, hi);
      });
}

void SpmvDense(const CsrMatrix& m, const DenseMatrix& x, DenseMatrix* y) {
  SGLA_CHECK(m.cols == x.rows()) << "SpmvDense shape mismatch";
  if (y->rows() != m.rows || y->cols() != x.cols()) {
    *y = DenseMatrix(m.rows, x.cols());
  }
  const int64_t d = x.cols();
  util::ThreadPool::Global().ParallelFor(
      0, m.rows, kSpmvDenseGrain, [&m, &x, y, d](int64_t lo, int64_t hi) {
        for (int64_t r = lo; r < hi; ++r) {
          double* out = y->Row(r);
          std::fill(out, out + d, 0.0);
          const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
          for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
            const double v = m.values[static_cast<size_t>(p)];
            const double* in = x.Row(m.col_idx[static_cast<size_t>(p)]);
            for (int64_t j = 0; j < d; ++j) out[j] += v * in[j];
          }
        }
      });
}

CsrMatrix WeightedSum(const std::vector<const CsrMatrix*>& views,
                      const std::vector<double>& weights) {
  SGLA_CHECK(!views.empty()) << "WeightedSum of zero views";
  SGLA_CHECK(views.size() == weights.size()) << "views/weights size mismatch";
  const int64_t rows = views[0]->rows;
  const int64_t cols = views[0]->cols;
  for (const CsrMatrix* v : views) {
    SGLA_CHECK(v->rows == rows && v->cols == cols)
        << "WeightedSum shape mismatch";
  }

  CsrMatrix out;
  out.rows = rows;
  out.cols = cols;
  out.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  util::ThreadPool& pool = util::ThreadPool::Global();

  // Serial path: single-pass merge with append (cheaper than the counting
  // pass below when no one can run it in parallel anyway). Produces exactly
  // the same CSR as the two-pass parallel path.
  if (pool.num_threads() == 1 || util::ThreadPool::InParallelRegion() ||
      util::ThreadPool::NumChunks(0, rows, kMergeGrain) == 1) {
    MergeWeightedRows(views, weights, 0, rows,
                      [&out](int64_t r, int64_t col, double sum) {
                        out.col_idx.push_back(col);
                        out.values.push_back(sum);
                        out.row_ptr[static_cast<size_t>(r) + 1] =
                            static_cast<int64_t>(out.col_idx.size());
                      });
    // Rows with no union slots never emitted; carry the running size across.
    for (int64_t r = 0; r < rows; ++r) {
      out.row_ptr[static_cast<size_t>(r) + 1] =
          std::max(out.row_ptr[static_cast<size_t>(r) + 1],
                   out.row_ptr[static_cast<size_t>(r)]);
    }
    return out;
  }

  // Pass 1: union nnz per row (each row belongs to exactly one chunk).
  pool.ParallelFor(0, rows, kMergeGrain, [&](int64_t lo, int64_t hi) {
    MergeWeightedRows(views, weights, lo, hi,
                      [&out](int64_t r, int64_t, double) {
                        ++out.row_ptr[static_cast<size_t>(r) + 1];
                      });
  });
  for (int64_t r = 0; r < rows; ++r) {
    out.row_ptr[static_cast<size_t>(r) + 1] +=
        out.row_ptr[static_cast<size_t>(r)];
  }
  out.col_idx.resize(static_cast<size_t>(out.row_ptr[static_cast<size_t>(rows)]));
  out.values.resize(out.col_idx.size());

  // Pass 2: the same merge again, writing each row's output slice in place.
  pool.ParallelFor(0, rows, kMergeGrain, [&](int64_t lo, int64_t hi) {
    // Slots for rows [lo, hi) are contiguous and emitted exactly once in
    // ascending (row, col) order, so one running index covers the chunk.
    int64_t slot = out.row_ptr[static_cast<size_t>(lo)];
    MergeWeightedRows(views, weights, lo, hi,
                      [&out, &slot](int64_t, int64_t col, double sum) {
                        out.col_idx[static_cast<size_t>(slot)] = col;
                        out.values[static_cast<size_t>(slot)] = sum;
                        ++slot;
                      });
  });
  return out;
}

CsrMatrix SymmetricSubmatrix(const CsrMatrix& m,
                             const std::vector<int64_t>& keep) {
  std::vector<int64_t> position(static_cast<size_t>(m.cols), -1);
  for (size_t i = 0; i < keep.size(); ++i) {
    position[static_cast<size_t>(keep[i])] = static_cast<int64_t>(i);
  }
  CsrMatrix out;
  out.rows = static_cast<int64_t>(keep.size());
  out.cols = static_cast<int64_t>(keep.size());
  out.row_ptr.assign(keep.size() + 1, 0);
  for (size_t i = 0; i < keep.size(); ++i) {
    const int64_t r = keep[i];
    const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      const int64_t c = position[static_cast<size_t>(
          m.col_idx[static_cast<size_t>(p)])];
      if (c < 0) continue;
      out.col_idx.push_back(c);
      out.values.push_back(m.values[static_cast<size_t>(p)]);
    }
    out.row_ptr[i + 1] = static_cast<int64_t>(out.col_idx.size());
  }
  return out;
}

DenseMatrix ToDense(const CsrMatrix& m) {
  DenseMatrix out(m.rows, m.cols);
  for (int64_t r = 0; r < m.rows; ++r) {
    const int64_t end = m.row_ptr[static_cast<size_t>(r) + 1];
    for (int64_t p = m.row_ptr[static_cast<size_t>(r)]; p < end; ++p) {
      out(r, m.col_idx[static_cast<size_t>(p)]) +=
          m.values[static_cast<size_t>(p)];
    }
  }
  return out;
}

}  // namespace la
}  // namespace sgla
