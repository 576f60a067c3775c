// AVX2 + FMA kernel path. Compiled with -mavx2 -mfma -ffp-contract=off:
// the contract flag matters — element-wise kernels below must round the
// multiply and the add separately (one _mm256_mul_pd + one _mm256_add_pd)
// so every lane computes exactly the scalar sequence and aggregation stays
// bit-identical across ISA paths; letting the compiler contract those into
// vfmadd would silently break that. Reduction kernels use FMA explicitly —
// their bits legitimately differ from scalar, but the lane layout,
// horizontal-sum order, and scalar remainder below are fixed, so each
// result is a pure function of the operands (never of the thread count).

#include <immintrin.h>

#include <cstdint>

#include "la/simd_table.h"

namespace sgla {
namespace la {
namespace simd {
namespace {

/// Fixed horizontal sum: lanes combined pairwise then across, one order
/// forever. Every reduction kernel in this TU funnels through this.
inline double HorizontalSum(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

double Avx2Dot(const double* x, const double* y, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  const __m256d acc =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  double tail = 0.0;
  for (; i < n; ++i) tail += x[i] * y[i];
  return HorizontalSum(acc) + tail;
}

double Avx2SquaredDistance(const double* x, const double* y, int64_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(x + i + 4), _mm256_loadu_pd(y + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    acc0 = _mm256_fmadd_pd(d, d, acc0);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - y[i];
    tail += d * d;
  }
  return HorizontalSum(_mm256_add_pd(acc0, acc1)) + tail;
}

void Avx2Axpy(double alpha, const double* x, double* y, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // mul then add, rounded separately: lane i is exactly y[i] += alpha*x[i].
    const __m256d ax = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), ax));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

double Avx2AxpyDot(double alpha, const double* u, double* x,
                   const double* next, int64_t n) {
  // Avx2Axpy's element roundings feeding Avx2Dot's lane layout: four
  // accumulators over 16-element blocks, 4-element blocks into acc0, the
  // same combine, then the scalar tail.
  const __m256d va = _mm256_set1_pd(alpha);
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (int b = 0; b < 4; ++b) {
      const int64_t at = i + 4 * b;
      const __m256d xb = _mm256_add_pd(
          _mm256_loadu_pd(x + at), _mm256_mul_pd(va, _mm256_loadu_pd(u + at)));
      _mm256_storeu_pd(x + at, xb);
      acc[b] = _mm256_fmadd_pd(xb, _mm256_loadu_pd(next + at), acc[b]);
    }
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d xb = _mm256_add_pd(
        _mm256_loadu_pd(x + i), _mm256_mul_pd(va, _mm256_loadu_pd(u + i)));
    _mm256_storeu_pd(x + i, xb);
    acc[0] = _mm256_fmadd_pd(xb, _mm256_loadu_pd(next + i), acc[0]);
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc[0], acc[1]),
                                    _mm256_add_pd(acc[2], acc[3]));
  double tail = 0.0;
  for (; i < n; ++i) {
    x[i] += alpha * u[i];
    tail += x[i] * next[i];
  }
  return HorizontalSum(sum) + tail;
}

void Avx2Scale(double alpha, double* x, int64_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx2SigmaSub(double sigma, const double* v, double* w, int64_t n) {
  const __m256d vs = _mm256_set1_pd(sigma);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sv = _mm256_mul_pd(vs, _mm256_loadu_pd(v + i));
    _mm256_storeu_pd(w + i, _mm256_sub_pd(sv, _mm256_loadu_pd(w + i)));
  }
  for (; i < n; ++i) w[i] = sigma * v[i] - w[i];
}

void Avx2ScatterAxpy(double w, const double* values, const int32_t* map,
                     int64_t nnz, double* out) {
  // AVX2 has gathers but no scatters, so the read-modify-writes stay
  // scalar; only the products vectorize. Each slot still sees one rounded
  // multiply and one rounded add — bit-identical to the scalar kernel.
  const __m256d vw = _mm256_set1_pd(w);
  alignas(32) double product[4];
  int64_t p = 0;
  for (; p + 4 <= nnz; p += 4) {
    _mm256_store_pd(product,
                    _mm256_mul_pd(vw, _mm256_loadu_pd(values + p)));
    out[map[p]] += product[0];
    out[map[p + 1]] += product[1];
    out[map[p + 2]] += product[2];
    out[map[p + 3]] += product[3];
  }
  for (; p < nnz; ++p) out[map[p]] += w * values[p];
}

void Avx2SpmvRows(const int64_t* row_ptr, const int64_t* col_idx,
                  const double* values, const double* x, double* y,
                  int64_t row_begin, int64_t row_end) {
  for (int64_t r = row_begin; r < row_end; ++r) {
    const int64_t end = row_ptr[r + 1];
    int64_t p = row_ptr[r];
    // Two accumulators keep two gathers in flight per iteration (gather
    // latency, not FMA throughput, bounds this loop). Combined acc0 + acc1
    // then the fixed horizontal sum — one association order forever.
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; p + 8 <= end; p += 8) {
      const __m256i idx0 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col_idx + p));
      const __m256i idx1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col_idx + p + 4));
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + p),
                             _mm256_i64gather_pd(x, idx0, 8), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(values + p + 4),
                             _mm256_i64gather_pd(x, idx1, 8), acc1);
    }
    for (; p + 4 <= end; p += 4) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(col_idx + p));
      const __m256d vx = _mm256_i64gather_pd(x, idx, 8);
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(values + p), vx, acc0);
    }
    double tail = 0.0;
    for (; p < end; ++p) tail += values[p] * x[col_idx[p]];
    y[r - row_begin] = HorizontalSum(_mm256_add_pd(acc0, acc1)) + tail;
  }
}

/// x[idx[0..4)] through the masked gather with a zero source and every lane
/// enabled: the same four loads as _mm256_i32gather_pd, whose undefined
/// source register GCC flags under -Wmaybe-uninitialized.
inline __m256d Gather4(const double* x, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx, all, 8);
}

void Avx2SellSpmv(const int64_t* slice_ptr, const int32_t* col_idx,
                  const double* values, const int64_t* row_len,
                  const int64_t* perm, const double* x, double* y,
                  int64_t slice_begin, int64_t slice_end) {
  for (int64_t s = slice_begin; s < slice_end; ++s) {
    const int64_t begin = slice_ptr[s];
    const int64_t width = slice_ptr[s + 1] - begin;
    __m256d acc_lo = _mm256_setzero_pd();
    __m256d acc_hi = _mm256_setzero_pd();
    // Full padded width: padding slots carry value 0.0 / column 0, which
    // leaves every lane's FMA chain (and therefore its bits) unchanged.
    for (int64_t j = 0; j < width; ++j) {
      const int64_t at = (begin + j) * 8;
      const __m128i idx_lo = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(col_idx + at));
      const __m128i idx_hi = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(col_idx + at + 4));
      acc_lo = _mm256_fmadd_pd(_mm256_loadu_pd(values + at),
                               Gather4(x, idx_lo), acc_lo);
      acc_hi = _mm256_fmadd_pd(_mm256_loadu_pd(values + at + 4),
                               Gather4(x, idx_hi), acc_hi);
    }
    alignas(32) double lane[8];
    _mm256_store_pd(lane, acc_lo);
    _mm256_store_pd(lane + 4, acc_hi);
    const int64_t slot_base = s * 8;
    for (int64_t l = 0; l < 8; ++l) {
      const int64_t row = perm[slot_base + l];
      if (row >= 0) y[row] = lane[l];
    }
  }
  (void)row_len;  // vector path runs the padded width; only scalar skips it
}

void Avx2NearestCenter(const double* point, const double* centers, int64_t k,
                       int64_t d, double* best_d2, int64_t* best_c) {
  double best = *best_d2;
  int64_t best_index = *best_c;
  for (int64_t c = 0; c < k; ++c) {
    const double d2 = Avx2SquaredDistance(point, centers + c * d, d);
    if (d2 < best) {  // strict: first index wins ties, like the scalar loop
      best = d2;
      best_index = c;
    }
  }
  *best_d2 = best;
  *best_c = best_index;
}

void Avx2Rotate(double c, double s, double* x, double* y, int64_t n) {
  // Two rounded products and one rounded add or subtract per element, as in
  // the scalar loop: no FMA.
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d f = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_mul_pd(vs, xi),
                                          _mm256_mul_pd(vc, f)));
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_mul_pd(vc, xi),
                                          _mm256_mul_pd(vs, f)));
  }
  for (; i < n; ++i) {
    const double f = y[i];
    y[i] = s * x[i] + c * f;
    x[i] = c * x[i] - s * f;
  }
}

constexpr KernelTable kAvx2Table = {
    &Avx2Dot,           &Avx2SquaredDistance, &Avx2Axpy,
    &Avx2AxpyDot,       &Avx2Scale,           &Avx2SigmaSub,
    &Avx2ScatterAxpy,   &Avx2SpmvRows,        &Avx2SellSpmv,
    &Avx2NearestCenter, &Avx2Rotate,
};

}  // namespace

const KernelTable* Avx2Table() { return &kAvx2Table; }

}  // namespace simd
}  // namespace la
}  // namespace sgla
