// AVX-512F kernel path. Same contract split as the AVX2 TU (see the header
// comment there): element-wise kernels round multiply and add separately
// (-ffp-contract=off keeps the compiler from fusing them), reductions use
// explicit FMA with a fixed lane layout, a hand-written fixed-order
// horizontal sum (_mm512_reduce_add_pd's association is the compiler's
// choice, so it is avoided), and a separate scalar remainder.

#include <immintrin.h>

#include <cstdint>

#include "la/simd_table.h"

namespace sgla {
namespace la {
namespace simd {
namespace {

/// x[idx[l]] for all eight lanes, through the masked gathers with a zero
/// source and every lane enabled: the same loads as _mm512_i64gather_pd /
/// _mm512_i32gather_pd, whose undefined source register GCC flags under
/// -Wmaybe-uninitialized.
inline __m512d Gather8(const double* x, __m512i idx) {
  return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, idx, x, 8);
}
inline __m512d Gather8(const double* x, __m256i idx) {
  return _mm512_mask_i32gather_pd(_mm512_setzero_pd(), 0xFF, idx, x, 8);
}

inline double HorizontalSum(__m512d v) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, v);
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

double Avx512Dot(const double* x, const double* y, int64_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * y[i];
  return HorizontalSum(_mm512_add_pd(acc0, acc1)) + tail;
}

double Avx512SquaredDistance(const double* x, const double* y, int64_t n) {
  __m512d acc = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d d =
        _mm512_sub_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return HorizontalSum(acc) + tail;
}

/// Lane r of the result is HorizontalSum(acc[r]) for r = 0..7: the same
/// ((0+1)+(2+3))+((4+5)+(6+7)) association with the same operand order,
/// done for eight rows at once by a two-source permute tree instead of
/// eight stores. (permutex2var, not unpacklo/unpackhi: GCC flags the
/// latter's undefined source under -Wmaybe-uninitialized.)
inline __m512d HorizontalSums8(const __m512d acc[8]) {
  // Two rows a, b -> [a0+a1, b0+b1, a2+a3, b2+b3, a4+a5, b4+b5, a6+a7, b6+b7].
  const __m512i even = _mm512_set_epi64(14, 6, 12, 4, 10, 2, 8, 0);
  const __m512i odd = _mm512_set_epi64(15, 7, 13, 5, 11, 3, 9, 1);
  __m512d pairs[4];
  for (int r = 0; r < 4; ++r) {
    const __m512d a = acc[2 * r];
    const __m512d b = acc[2 * r + 1];
    pairs[r] = _mm512_add_pd(_mm512_permutex2var_pd(a, even, b),
                             _mm512_permutex2var_pd(a, odd, b));
  }
  // Four rows -> [(01)+(23) of rows 0..3, (45)+(67) of rows 0..3].
  const __m512i first = _mm512_set_epi64(13, 12, 5, 4, 9, 8, 1, 0);
  const __m512i second = _mm512_set_epi64(15, 14, 7, 6, 11, 10, 3, 2);
  const __m512d low = _mm512_add_pd(
      _mm512_permutex2var_pd(pairs[0], first, pairs[1]),
      _mm512_permutex2var_pd(pairs[0], second, pairs[1]));
  const __m512d high = _mm512_add_pd(
      _mm512_permutex2var_pd(pairs[2], first, pairs[3]),
      _mm512_permutex2var_pd(pairs[2], second, pairs[3]));
  // Eight rows -> ((01)+(23)) + ((45)+(67)) per row.
  const __m512i front = _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
  const __m512i back = _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
  return _mm512_add_pd(_mm512_permutex2var_pd(low, front, high),
                       _mm512_permutex2var_pd(low, back, high));
}

void Avx512SquaredDistances(const double* point, const double* rows,
                            int64_t count, int64_t d, double* out) {
  // Eight rows per block, each with Avx512SquaredDistance's accumulator and
  // 8-element steps; the permute tree sums all eight at once, and each
  // row's scalar remainder is added last. Leftover rows take the single
  // kernel.
  const int64_t d8 = d - d % 8;
  int64_t j = 0;
  for (; j + 8 <= count; j += 8) {
    const double* block = rows + j * d;
    __m512d acc[8];
    for (int r = 0; r < 8; ++r) acc[r] = _mm512_setzero_pd();
    for (int64_t i = 0; i < d8; i += 8) {
      const __m512d x = _mm512_loadu_pd(point + i);
      for (int r = 0; r < 8; ++r) {
        const __m512d diff =
            _mm512_sub_pd(x, _mm512_loadu_pd(block + r * d + i));
        acc[r] = _mm512_fmadd_pd(diff, diff, acc[r]);
      }
    }
    alignas(64) double tail[8];
    for (int r = 0; r < 8; ++r) {
      const double* row = block + r * d;
      double sum = 0.0;
      for (int64_t i = d8; i < d; ++i) {
        const double diff = point[i] - row[i];
        sum += diff * diff;
      }
      tail[r] = sum;
    }
    _mm512_storeu_pd(out + j, _mm512_add_pd(HorizontalSums8(acc),
                                            _mm512_load_pd(tail)));
  }
  for (; j < count; ++j) {
    out[j] = Avx512SquaredDistance(point, rows + j * d, d);
  }
}

void Avx512Axpy(double alpha, const double* x, double* y, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d ax = _mm512_mul_pd(va, _mm512_loadu_pd(x + i));
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_loadu_pd(y + i), ax));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double Avx512AxpyDot(double alpha, const double* u, double* x,
                     const double* next, int64_t n) {
  // Avx512Axpy's element roundings feeding Avx512Dot's lane layout: two
  // accumulators over 16-element blocks, one 8-element block into acc0,
  // then the scalar tail.
  const __m512d va = _mm512_set1_pd(alpha);
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d x0 = _mm512_add_pd(
        _mm512_loadu_pd(x + i), _mm512_mul_pd(va, _mm512_loadu_pd(u + i)));
    const __m512d x1 =
        _mm512_add_pd(_mm512_loadu_pd(x + i + 8),
                      _mm512_mul_pd(va, _mm512_loadu_pd(u + i + 8)));
    _mm512_storeu_pd(x + i, x0);
    _mm512_storeu_pd(x + i + 8, x1);
    acc0 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(next + i), acc0);
    acc1 = _mm512_fmadd_pd(x1, _mm512_loadu_pd(next + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d x0 = _mm512_add_pd(
        _mm512_loadu_pd(x + i), _mm512_mul_pd(va, _mm512_loadu_pd(u + i)));
    _mm512_storeu_pd(x + i, x0);
    acc0 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(next + i), acc0);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    x[i] += alpha * u[i];
    tail += x[i] * next[i];
  }
  return HorizontalSum(_mm512_add_pd(acc0, acc1)) + tail;
}

void Avx512Scale(double alpha, double* x, int64_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(_mm512_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx512SigmaSub(double sigma, const double* v, double* w, int64_t n) {
  const __m512d vs = _mm512_set1_pd(sigma);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d sv = _mm512_mul_pd(vs, _mm512_loadu_pd(v + i));
    _mm512_storeu_pd(w + i, _mm512_sub_pd(sv, _mm512_loadu_pd(w + i)));
  }
  for (; i < n; ++i) w[i] = sigma * v[i] - w[i];
}

void Avx512ScatterAxpy(double w, const double* values, const int32_t* map,
                       int64_t nnz, double* out) {
  // The map never repeats a slot, so an 8-wide gather + scatter would be
  // conflict-free — but scalar read-modify-writes keep the kernel
  // bit-identical to the scalar path (one rounded multiply, one rounded add
  // per slot) and the products still vectorize.
  const __m512d vw = _mm512_set1_pd(w);
  alignas(64) double product[8];
  int64_t p = 0;
  for (; p + 8 <= nnz; p += 8) {
    _mm512_store_pd(product,
                    _mm512_mul_pd(vw, _mm512_loadu_pd(values + p)));
    for (int64_t j = 0; j < 8; ++j) out[map[p + j]] += product[j];
  }
  for (; p < nnz; ++p) out[map[p]] += w * values[p];
}

void Avx512SpmvRows(const int64_t* row_ptr, const int64_t* col_idx,
                    const double* values, const double* x, double* y,
                    int64_t row_begin, int64_t row_end) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int64_t end = row_ptr[r + 1];
    int64_t p = row_ptr[r];
    // Two accumulators keep two gathers in flight (gather latency bounds
    // this loop); combined acc0 + acc1 then the fixed horizontal sum.
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    for (; p + 16 <= end; p += 16) {
      const __m512i idx0 = _mm512_loadu_si512(col_idx + p);
      const __m512i idx1 = _mm512_loadu_si512(col_idx + p + 8);
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p),
                             Gather8(x, idx0), acc0);
      acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p + 8),
                             Gather8(x, idx1), acc1);
    }
    for (; p + 8 <= end; p += 8) {
      const __m512i idx = _mm512_loadu_si512(col_idx + p);
      const __m512d vx = Gather8(x, idx);
      acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(values + p), vx, acc0);
    }
    double tail = 0.0;
    for (; p < end; ++p) tail += values[p] * x[col_idx[p]];
    y[r - row_begin] = HorizontalSum(_mm512_add_pd(acc0, acc1)) + tail;
  }
}

/// Stores one slice's eight lane sums to their rows (ghost lanes skipped).
inline void StoreSlice(__m512d acc, const int64_t* perm, int64_t s,
                       double* y) {
  alignas(64) double lane[8];
  _mm512_store_pd(lane, acc);
  const int64_t slot_base = s * 8;
  for (int64_t l = 0; l < 8; ++l) {
    const int64_t row = perm[slot_base + l];
    if (row >= 0) y[row] = lane[l];
  }
}

/// acc += values * x[col_idx] for column step `at` (one 8-lane slot row).
inline __m512d SellStep(const int32_t* col_idx, const double* values,
                        const double* x, int64_t at, __m512d acc) {
  const __m256i idx = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(col_idx + at));
  return _mm512_fmadd_pd(_mm512_loadu_pd(values + at),
                         Gather8(x, idx), acc);
}

void Avx512SellSpmv(const int64_t* slice_ptr, const int32_t* col_idx,
                    const double* values, const int64_t* row_len,
                    const int64_t* perm, const double* x, double* y,
                    int64_t slice_begin, int64_t slice_end) {
  // One 8-wide register covers a whole SELL-C-8 slice; each lane's FMA
  // chain runs in slot order j = 0..width-1, padding included (value 0.0
  // leaves the chain's bits unchanged). Slices go in pairs, each with its
  // own accumulator, so two independent gathers are in flight per step;
  // the wider slice of a pair finishes alone, and an odd count ends with a
  // single slice.
  int64_t s = slice_begin;
  for (; s + 2 <= slice_end; s += 2) {
    const int64_t begin0 = slice_ptr[s];
    const int64_t begin1 = slice_ptr[s + 1];
    const int64_t width0 = begin1 - begin0;
    const int64_t width1 = slice_ptr[s + 2] - begin1;
    const int64_t common = width0 < width1 ? width0 : width1;
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    int64_t j = 0;
    for (; j < common; ++j) {
      acc0 = SellStep(col_idx, values, x, (begin0 + j) * 8, acc0);
      acc1 = SellStep(col_idx, values, x, (begin1 + j) * 8, acc1);
    }
    for (int64_t j0 = j; j0 < width0; ++j0) {
      acc0 = SellStep(col_idx, values, x, (begin0 + j0) * 8, acc0);
    }
    for (int64_t j1 = j; j1 < width1; ++j1) {
      acc1 = SellStep(col_idx, values, x, (begin1 + j1) * 8, acc1);
    }
    StoreSlice(acc0, perm, s, y);
    StoreSlice(acc1, perm, s + 1, y);
  }
  if (s < slice_end) {
    const int64_t begin = slice_ptr[s];
    const int64_t width = slice_ptr[s + 1] - begin;
    __m512d acc = _mm512_setzero_pd();
    for (int64_t j = 0; j < width; ++j) {
      acc = SellStep(col_idx, values, x, (begin + j) * 8, acc);
    }
    StoreSlice(acc, perm, s, y);
  }
  (void)row_len;
}

void Avx512NearestCenter(const double* point, const double* centers,
                         int64_t k, int64_t d, double* best_d2,
                         int64_t* best_c) {
  double best = *best_d2;
  int64_t best_index = *best_c;
  for (int64_t c = 0; c < k; ++c) {
    const double d2 = Avx512SquaredDistance(point, centers + c * d, d);
    if (d2 < best) {
      best = d2;
      best_index = c;
    }
  }
  *best_d2 = best;
  *best_c = best_index;
}

void Avx512Rotate(double c, double s, double* x, double* y, int64_t n) {
  // Two rounded products and one rounded add or subtract per element, as in
  // the scalar loop: no FMA.
  const __m512d vc = _mm512_set1_pd(c);
  const __m512d vs = _mm512_set1_pd(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d xi = _mm512_loadu_pd(x + i);
    const __m512d f = _mm512_loadu_pd(y + i);
    _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_mul_pd(vs, xi),
                                          _mm512_mul_pd(vc, f)));
    _mm512_storeu_pd(x + i, _mm512_sub_pd(_mm512_mul_pd(vc, xi),
                                          _mm512_mul_pd(vs, f)));
  }
  for (; i < n; ++i) {
    const double f = y[i];
    y[i] = s * x[i] + c * f;
    x[i] = c * x[i] - s * f;
  }
}

constexpr KernelTable kAvx512Table = {
    &Avx512Dot,           &Avx512SquaredDistance, &Avx512SquaredDistances,
    &Avx512Axpy,          &Avx512AxpyDot,         &Avx512Scale,
    &Avx512SigmaSub,      &Avx512ScatterAxpy,     &Avx512SpmvRows,
    &Avx512SellSpmv,      &Avx512NearestCenter,   &Avx512Rotate,
};

}  // namespace

const KernelTable* Avx512Table() { return &kAvx512Table; }

}  // namespace simd
}  // namespace la
}  // namespace sgla
