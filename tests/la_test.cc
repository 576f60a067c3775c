// Unit tests for the la/ numerical substrate: SpMV and WeightedSum against
// dense references, Lanczos vs an analytic 3x3 spectrum, the tridiagonal QL
// eigensolver against dense Jacobi, submatrix extraction and the truncated
// SVD, plus the per-ISA SIMD kernel contracts (remainder lanes, SELL layout,
// cross-ISA bit rules from la/simd_table.h).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "la/dense.h"
#include "la/eigen_sym.h"
#include "la/lanczos.h"
#include "la/simd.h"
#include "la/sparse.h"
#include "la/svd.h"
#include "util/rng.h"

// Allocation-counting hook (same scheme as coarse_test.cc): tests measure
// deltas around calls that promise to be allocation-free.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// GCC can't see that these replacements pair new<->malloc and delete<->free
// consistently once library code is inlined against them; the runtime
// pairing is correct by definition of global replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace sgla {
namespace {

/// Pins the SIMD dispatch path for one test scope, restoring the previous
/// path on destruction. Construction asserts the ISA is available — tests
/// iterate simd::AvailableIsas(), so unavailable paths are skipped, not
/// failed.
class ScopedIsa {
 public:
  explicit ScopedIsa(la::simd::Isa isa) : previous_(la::simd::ActiveIsa()) {
    EXPECT_TRUE(la::simd::SetActiveForTesting(isa))
        << "pinning unavailable ISA " << la::simd::IsaName(isa);
  }
  ~ScopedIsa() { la::simd::SetActiveForTesting(previous_); }

 private:
  la::simd::Isa previous_;
};

/// The vector-width edge cases every per-ISA kernel test sweeps: below one
/// lane, around the 8-lane SELL slice, around the 512-row sort window /
/// kernel chunk grain, and the ragged bitdump fixture size.
const int64_t kLaneSizes[] = {1, 7, 8, 9, 511, 512, 513, 2570};

la::CsrMatrix RandomSparse(int64_t rows, int64_t cols, double density,
                           Rng* rng) {
  std::vector<la::Triplet> entries;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      if (rng->Uniform() < density) {
        entries.push_back({i, j, rng->Gaussian()});
      }
    }
  }
  return la::FromTriplets(rows, cols, std::move(entries));
}

TEST(SparseTest, SpmvMatchesDenseReference) {
  Rng rng(11);
  const la::CsrMatrix m = RandomSparse(37, 23, 0.2, &rng);
  const la::DenseMatrix dense = la::ToDense(m);
  la::Vector x(23);
  for (double& v : x) v = rng.Gaussian();
  la::Vector y(37, -1.0);
  la::Spmv(m, x.data(), y.data());
  for (int64_t i = 0; i < 37; ++i) {
    double expected = 0.0;
    for (int64_t j = 0; j < 23; ++j) {
      expected += dense(i, j) * x[static_cast<size_t>(j)];
    }
    EXPECT_NEAR(y[static_cast<size_t>(i)], expected, 1e-12);
  }
}

TEST(SparseTest, FromTripletsSumsDuplicates) {
  la::CsrMatrix m = la::FromTriplets(2, 2, {{0, 1, 1.5}, {0, 1, 2.5}, {1, 0, 1.0}});
  EXPECT_EQ(m.nnz(), 2);
  const la::DenseMatrix d = la::ToDense(m);
  EXPECT_DOUBLE_EQ(d(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 1.0);
}

TEST(SparseTest, WeightedSumMatchesDenseReference) {
  Rng rng(12);
  const la::CsrMatrix a = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix b = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix c = RandomSparse(25, 25, 0.15, &rng);
  const la::CsrMatrix sum = la::WeightedSum({&a, &b, &c}, {0.25, 0.6, 0.15});
  const la::DenseMatrix da = la::ToDense(a), db = la::ToDense(b),
                        dc = la::ToDense(c), ds = la::ToDense(sum);
  for (int64_t i = 0; i < 25; ++i) {
    for (int64_t j = 0; j < 25; ++j) {
      EXPECT_NEAR(ds(i, j), 0.25 * da(i, j) + 0.6 * db(i, j) + 0.15 * dc(i, j),
                  1e-12);
    }
  }
}

TEST(SparseTest, SymmetricSubmatrixKeepsSelectedBlock) {
  Rng rng(13);
  const la::CsrMatrix m = RandomSparse(10, 10, 0.4, &rng);
  const std::vector<int64_t> keep = {1, 4, 7, 8};
  const la::CsrMatrix sub = la::SymmetricSubmatrix(m, keep);
  const la::DenseMatrix dm = la::ToDense(m), dsub = la::ToDense(sub);
  for (size_t i = 0; i < keep.size(); ++i) {
    for (size_t j = 0; j < keep.size(); ++j) {
      EXPECT_NEAR(dsub(static_cast<int64_t>(i), static_cast<int64_t>(j)),
                  dm(keep[i], keep[j]), 1e-14);
    }
  }
}

TEST(LanczosTest, Analytic3x3Spectrum) {
  // [[2,-1,0],[-1,2,-1],[0,-1,2]] has eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2).
  const la::CsrMatrix m = la::FromTriplets(
      3, 3,
      {{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0}, {1, 1, 2.0}, {1, 2, -1.0},
       {2, 1, -1.0}, {2, 2, 2.0}});
  auto eigen = la::SmallestEigenpairs(m, 3, 4.0);
  ASSERT_TRUE(eigen.ok()) << eigen.status().ToString();
  const double sqrt2 = std::sqrt(2.0);
  EXPECT_NEAR(eigen->values[0], 2.0 - sqrt2, 1e-9);
  EXPECT_NEAR(eigen->values[1], 2.0, 1e-9);
  EXPECT_NEAR(eigen->values[2], 2.0 + sqrt2, 1e-9);
  // Residual check ||Mv - lambda v|| ~ 0 for every pair.
  for (int j = 0; j < 3; ++j) {
    la::Vector v(3), mv(3);
    for (int64_t i = 0; i < 3; ++i) v[static_cast<size_t>(i)] = eigen->vectors(i, j);
    la::Spmv(m, v.data(), mv.data());
    for (int64_t i = 0; i < 3; ++i) {
      EXPECT_NEAR(mv[static_cast<size_t>(i)],
                  eigen->values[static_cast<size_t>(j)] * v[static_cast<size_t>(i)],
                  1e-8);
    }
  }
}

TEST(LanczosTest, LargeSparseMatchesDenseJacobi) {
  // Big enough to exercise the Lanczos path (dense fallback is <= 96 rows).
  Rng rng(14);
  std::vector<la::Triplet> entries;
  const int64_t n = 150;
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i, i, 1.0 + 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      const double w = 0.3 * rng.Uniform();
      entries.push_back({i, i + 1, w});
      entries.push_back({i + 1, i, w});
    }
  }
  const la::CsrMatrix m = la::FromTriplets(n, n, std::move(entries));
  auto lanczos = la::SmallestEigenpairs(m, 4, 3.0);
  ASSERT_TRUE(lanczos.ok());

  la::Vector dense_values;
  la::DenseMatrix dense_vectors;
  la::JacobiEigenSymmetric(la::ToDense(m), &dense_values, &dense_vectors);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(lanczos->values[static_cast<size_t>(j)],
                dense_values[static_cast<size_t>(j)], 1e-7);
  }
}

/// A symmetric tridiagonal: diag[0..m), offdiag[0..m-1).
struct Tridiagonal {
  la::Vector diag;
  la::Vector offdiag;
  int size() const { return static_cast<int>(diag.size()); }
};

Tridiagonal RandomTridiagonal(int m, Rng* rng) {
  Tridiagonal t;
  for (int i = 0; i < m; ++i) t.diag.push_back(2.0 * rng->Uniform() - 1.0);
  for (int i = 0; i + 1 < m; ++i) t.offdiag.push_back(rng->Gaussian());
  return t;
}

/// Direct sum of `copies` copies of `block`: every eigenvalue repeats.
Tridiagonal BlockSum(const Tridiagonal& block, int copies) {
  Tridiagonal t;
  for (int c = 0; c < copies; ++c) {
    t.diag.insert(t.diag.end(), block.diag.begin(), block.diag.end());
    t.offdiag.insert(t.offdiag.end(), block.offdiag.begin(),
                     block.offdiag.end());
    if (c + 1 < copies) t.offdiag.push_back(0.0);
  }
  return t;
}

la::DenseMatrix DenseOf(const Tridiagonal& t) {
  const int m = t.size();
  la::DenseMatrix dense(m, m);
  for (int i = 0; i < m; ++i) {
    dense(i, i) = t.diag[static_cast<size_t>(i)];
    if (i + 1 < m) {
      dense(i, i + 1) = t.offdiag[static_cast<size_t>(i)];
      dense(i + 1, i) = t.offdiag[static_cast<size_t>(i)];
    }
  }
  return dense;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

/// Checks one tridiagonal against dense Jacobi — eigenvalues,
/// orthonormality, residuals — and against itself: a second call on the
/// reused workspace reproduces every bit.
void ExpectTridiagonalEigenDecomposition(const Tridiagonal& t) {
  const int m = t.size();
  SCOPED_TRACE(m);
  const la::DenseMatrix dense = DenseOf(t);
  double norm = 0.0;  // infinity norm
  for (int i = 0; i < m; ++i) {
    double row = 0.0;
    for (int j = 0; j < m; ++j) row += std::fabs(dense(i, j));
    norm = std::max(norm, row);
  }

  la::TridiagonalWorkspace workspace;
  la::Vector values;
  la::DenseMatrix vectors;
  ASSERT_TRUE(la::TridiagonalEigenInto(t.diag.data(), t.offdiag.data(), m,
                                       &workspace, &values, &vectors)
                  .ok());
  ASSERT_EQ(values.size(), static_cast<size_t>(m));
  ASSERT_EQ(vectors.rows(), m);
  ASSERT_EQ(vectors.cols(), m);

  la::Vector reference;
  la::DenseMatrix reference_vectors;
  la::JacobiEigenSymmetric(dense, &reference, &reference_vectors);
  for (int j = 0; j < m; ++j) {
    EXPECT_NEAR(values[static_cast<size_t>(j)],
                reference[static_cast<size_t>(j)], 1e-12 * norm);
    if (j > 0) {
      EXPECT_LE(values[static_cast<size_t>(j) - 1],
                values[static_cast<size_t>(j)]);
    }
  }

  double max_orthogonality = 0.0;
  double max_residual = 0.0;
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < m; ++b) {
      double dot = 0.0;
      for (int k = 0; k < m; ++k) dot += vectors(k, a) * vectors(k, b);
      max_orthogonality =
          std::max(max_orthogonality, std::fabs(dot - (a == b ? 1.0 : 0.0)));
    }
    double residual = 0.0;
    for (int i = 0; i < m; ++i) {
      double tz = 0.0;
      for (int k = 0; k < m; ++k) tz += dense(i, k) * vectors(k, a);
      const double r = tz - values[static_cast<size_t>(a)] * vectors(i, a);
      residual += r * r;
    }
    max_residual = std::max(max_residual, std::sqrt(residual));
  }
  EXPECT_LE(max_orthogonality, 1e-12);
  EXPECT_LE(max_residual, 1e-12 * norm);

  la::Vector again_values;
  la::DenseMatrix again_vectors;
  ASSERT_TRUE(la::TridiagonalEigenInto(t.diag.data(), t.offdiag.data(), m,
                                       &workspace, &again_values,
                                       &again_vectors)
                  .ok());
  for (int j = 0; j < m; ++j) {
    EXPECT_EQ(Bits(again_values[static_cast<size_t>(j)]),
              Bits(values[static_cast<size_t>(j)]));
    for (int i = 0; i < m; ++i) {
      EXPECT_EQ(Bits(again_vectors(i, j)), Bits(vectors(i, j)))
          << "entry " << i << ", " << j;
    }
  }
}

TEST(TridiagonalEigenTest, RandomTridiagonalsMatchJacobi) {
  Rng rng(16);
  for (int m : {1, 2, 3, 17, 48, 96}) {
    ExpectTridiagonalEigenDecomposition(RandomTridiagonal(m, &rng));
  }
}

TEST(TridiagonalEigenTest, SplitTridiagonalFromLanczosRestart) {
  // A Lanczos breakdown restart writes beta_j = 0 exactly: the tridiagonal
  // splits into two unreduced blocks.
  Rng rng(17);
  Tridiagonal t = RandomTridiagonal(48, &rng);
  t.offdiag[20] = 0.0;
  ExpectTridiagonalEigenDecomposition(t);
}

TEST(TridiagonalEigenTest, BlockSumWithRepeatedEigenvalues) {
  Rng rng(18);
  const Tridiagonal block = RandomTridiagonal(8, &rng);
  ExpectTridiagonalEigenDecomposition(BlockSum(block, 3));
  // Exact ties in a diagonal matrix come out in index order.
  Tridiagonal diagonal;
  diagonal.diag = {2.0, 1.0, 2.0, 1.0};
  diagonal.offdiag = {0.0, 0.0, 0.0};
  la::TridiagonalWorkspace workspace;
  la::Vector values;
  la::DenseMatrix vectors;
  ASSERT_TRUE(la::TridiagonalEigenInto(diagonal.diag.data(),
                                       diagonal.offdiag.data(), 4, &workspace,
                                       &values, &vectors)
                  .ok());
  EXPECT_EQ(values, (la::Vector{1.0, 1.0, 2.0, 2.0}));
  EXPECT_EQ(vectors(1, 0), 1.0);
  EXPECT_EQ(vectors(3, 1), 1.0);
  EXPECT_EQ(vectors(0, 2), 1.0);
  EXPECT_EQ(vectors(2, 3), 1.0);
}

TEST(TridiagonalEigenTest, SecondCallAtSameSizeDoesNotAllocate) {
  Rng rng(19);
  const Tridiagonal t = RandomTridiagonal(48, &rng);
  la::TridiagonalWorkspace workspace;
  la::Vector values;
  la::DenseMatrix vectors;
  for (int call = 0; call < 2; ++call) {
    const int64_t before = g_allocations.load();
    ASSERT_TRUE(la::TridiagonalEigenInto(t.diag.data(), t.offdiag.data(), 48,
                                         &workspace, &values, &vectors)
                    .ok());
    if (call == 1) {
      EXPECT_EQ(g_allocations.load() - before, 0);
    }
  }
}

TEST(TridiagonalEigenTest, NonFiniteInputIsInternal) {
  Rng rng(20);
  for (int entry = 0; entry < 2; ++entry) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      Tridiagonal t = RandomTridiagonal(6, &rng);
      (entry == 0 ? t.diag[5] : t.offdiag[2]) = bad;
      la::TridiagonalWorkspace workspace;
      la::Vector values;
      la::DenseMatrix vectors;
      const Status status =
          la::TridiagonalEigenInto(t.diag.data(), t.offdiag.data(), 6,
                                   &workspace, &values, &vectors);
      EXPECT_EQ(status.code(), StatusCode::kInternal) << status.ToString();
    }
  }
}

/// Satellite: every compiled-and-runnable ISA path must produce correct SpMV
/// results at remainder-lane sizes, and two identical calls must produce
/// identical bits (reductions are a pure function of the operands within one
/// ISA).
TEST(SimdTest, SpmvRemainderLanesPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    for (int64_t n : kLaneSizes) {
      Rng rng(100 + n);
      const double density = std::min(1.0, 8.0 / static_cast<double>(n));
      const la::CsrMatrix m = RandomSparse(n, n, density, &rng);
      la::Vector x(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      la::Vector y(static_cast<size_t>(n), -1.0);
      la::Spmv(m, x.data(), y.data());
      const la::DenseMatrix dense = la::ToDense(m);
      for (int64_t i = 0; i < n; ++i) {
        double expected = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          expected += dense(i, j) * x[static_cast<size_t>(j)];
        }
        EXPECT_NEAR(y[static_cast<size_t>(i)], expected, 1e-10)
            << la::simd::IsaName(isa) << " n=" << n << " row " << i;
      }
      la::Vector again(static_cast<size_t>(n), 7.0);
      la::Spmv(m, x.data(), again.data());
      EXPECT_EQ(y, again) << la::simd::IsaName(isa) << " n=" << n
                          << ": SpMV not bit-stable within one ISA";
    }
  }
}

/// Satellite: the SELL-C-sigma form must agree with the CSR SpMV on every
/// ISA — numerically everywhere, and bit-for-bit under scalar (the scalar
/// SELL kernel walks each row's entries in CSR order, skipping padding).
TEST(SimdTest, SellSpmvMatchesCsrPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    for (int64_t n : kLaneSizes) {
      Rng rng(200 + n);
      const double density = std::min(1.0, 8.0 / static_cast<double>(n));
      const la::CsrMatrix m = RandomSparse(n, n, density, &rng);
      la::SellMatrix sell;
      la::BuildSellPattern(m, &sell);
      la::Vector x(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      la::Vector y_csr(static_cast<size_t>(n), -1.0);
      la::Vector y_sell(static_cast<size_t>(n), -2.0);
      la::Spmv(m, x.data(), y_csr.data());
      la::SellSpmv(sell, x.data(), y_sell.data());
      for (int64_t i = 0; i < n; ++i) {
        if (isa == la::simd::Isa::kScalar) {
          EXPECT_EQ(y_sell[static_cast<size_t>(i)],
                    y_csr[static_cast<size_t>(i)])
              << "scalar SELL must be bit-identical to CSR, n=" << n
              << " row " << i;
        } else {
          EXPECT_NEAR(y_sell[static_cast<size_t>(i)],
                      y_csr[static_cast<size_t>(i)], 1e-10)
              << la::simd::IsaName(isa) << " n=" << n << " row " << i;
        }
      }
    }
  }
}

/// A SELL layout built slice by slice: slice s is widths[s] column steps
/// wide, and the lanes of the final slice past `rows` are ghosts. Each real
/// lane gets a random length up to its slice's width (lane 0 gets the full
/// width), random columns in [0, cols) and random values; padding carries
/// value 0.0 and column 0, as BuildSellLayout writes it.
la::SellMatrix HandBuiltSell(const std::vector<int64_t>& widths, int64_t rows,
                             int64_t cols, Rng* rng) {
  la::SellMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.slice_ptr.assign(1, 0);
  for (int64_t width : widths) {
    m.slice_ptr.push_back(m.slice_ptr.back() + width);
  }
  const int64_t slots = m.slice_ptr.back() * la::kSellLanes;
  m.col_idx.assign(static_cast<size_t>(slots), 0);
  m.values.assign(static_cast<size_t>(slots), 0.0);
  for (int64_t s = 0; s < static_cast<int64_t>(widths.size()); ++s) {
    for (int64_t l = 0; l < la::kSellLanes; ++l) {
      const int64_t slot = s * la::kSellLanes + l;
      const bool ghost = slot >= rows;
      m.perm.push_back(ghost ? -1 : slot);
      const int64_t width = widths[static_cast<size_t>(s)];
      const int64_t len =
          ghost ? 0 : l == 0 ? width : rng->UniformInt(0, width);
      m.row_len.push_back(len);
      for (int64_t j = 0; j < len; ++j) {
        const size_t at =
            static_cast<size_t>(la::SellSlotBase(m, slot) + j * la::kSellLanes);
        m.col_idx[at] = static_cast<int32_t>(rng->UniformInt(0, cols - 1));
        m.values[at] = rng->Gaussian();
      }
    }
  }
  return m;
}

/// A vector sell_spmv lane is exactly one FMA chain over its slice's
/// padded width, j = 0..width-1 — however the kernel groups slices (AVX-512
/// walks two at a time, each with its own accumulator). Covers 1, 2, 3 and
/// 5 slices, pairs whose widths differ either way, an empty slice, a ragged
/// final slice with ghost lanes, and ranges that start on an odd slice so
/// the pairing shifts.
TEST(SimdTest, SellSpmvVectorLanesAreFmaChainsPerSlice) {
  struct Layout {
    std::vector<int64_t> widths;
    int64_t rows;
  };
  const Layout layouts[] = {
      {{3}, 8},               // one slice
      {{5, 2}, 16},           // a pair, first slice wider
      {{2, 5, 4}, 24},        // second slice wider, then an odd tail
      {{4, 4, 1, 0, 6}, 40},  // an empty slice
      {{6, 3, 7, 2, 5}, 37},  // ragged final slice: 3 ghost lanes
  };
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    if (isa == la::simd::Isa::kScalar) continue;
    ScopedIsa pin(isa);
    const la::simd::KernelTable* t = la::simd::ActiveTable();
    for (const Layout& layout : layouts) {
      Rng rng(500 + layout.rows);
      const int64_t cols = 29;
      const la::SellMatrix m = HandBuiltSell(layout.widths, layout.rows, cols,
                                             &rng);
      la::Vector x(static_cast<size_t>(cols));
      for (double& v : x) v = rng.Gaussian();
      const int64_t slices = m.num_slices();
      for (int64_t begin = 0; begin < std::min<int64_t>(2, slices); ++begin) {
        const std::string where = std::string(la::simd::IsaName(isa)) +
                                  " slices=" + std::to_string(slices) +
                                  " begin=" + std::to_string(begin);
        la::Vector want(static_cast<size_t>(layout.rows), -3.0);
        for (int64_t s = begin; s < slices; ++s) {
          for (int64_t l = 0; l < la::kSellLanes; ++l) {
            const int64_t slot = s * la::kSellLanes + l;
            double acc = 0.0;
            for (int64_t j = m.slice_ptr[static_cast<size_t>(s)];
                 j < m.slice_ptr[static_cast<size_t>(s) + 1]; ++j) {
              const size_t at = static_cast<size_t>(j * la::kSellLanes + l);
              acc = std::fma(m.values[at],
                             x[static_cast<size_t>(m.col_idx[at])], acc);
            }
            const int64_t row = m.perm[static_cast<size_t>(slot)];
            if (row >= 0) want[static_cast<size_t>(row)] = acc;
          }
        }
        la::Vector got(static_cast<size_t>(layout.rows), -3.0);
        t->sell_spmv(m.slice_ptr.data(), m.col_idx.data(), m.values.data(),
                     m.row_len.data(), m.perm.data(), x.data(), got.data(),
                     begin, slices);
        for (int64_t r = 0; r < layout.rows; ++r) {
          EXPECT_EQ(Bits(got[static_cast<size_t>(r)]),
                    Bits(want[static_cast<size_t>(r)]))
              << where << " row " << r;
        }
      }
    }
  }
}

/// axpy_dot is one Gram–Schmidt step in one sweep. On every ISA,
/// x and the returned value must equal, bit for bit, axpy(alpha, u, x)
/// followed by dot(x, next) — at every remainder length and past the
/// Lanczos element grain.
TEST(SimdTest, AxpyDotEqualsAxpyThenDotPerIsa) {
  std::vector<int64_t> sizes;
  for (int64_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (int64_t n : {500, 2000, 8193}) sizes.push_back(n);
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    const la::simd::KernelTable* t = la::simd::ActiveTable();
    for (int64_t n : sizes) {
      Rng rng(600 + n);
      la::Vector u(static_cast<size_t>(n)), x(static_cast<size_t>(n)),
          next(static_cast<size_t>(n));
      for (double& v : u) v = rng.Gaussian();
      for (double& v : x) v = rng.Gaussian();
      for (double& v : next) v = rng.Gaussian();
      const double alpha = -0.37 * rng.Gaussian();
      la::Vector want_x = x;
      t->axpy(alpha, u.data(), want_x.data(), n);
      const double want = t->dot(want_x.data(), next.data(), n);
      la::Vector got_x = x;
      const double got =
          t->axpy_dot(alpha, u.data(), got_x.data(), next.data(), n);
      EXPECT_EQ(Bits(got), Bits(want))
          << la::simd::IsaName(isa) << " n=" << n;
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(got_x[static_cast<size_t>(i)]),
                  Bits(want_x[static_cast<size_t>(i)]))
            << la::simd::IsaName(isa) << " n=" << n << " element " << i;
      }
    }
  }
}

/// Element-wise kernels (axpy, scale, sigma_sub, scatter_axpy, rotate) must
/// be bit-identical to scalar on EVERY ISA path — each output element is
/// one separately-rounded mul + add, never an FMA (see la/simd_table.h).
TEST(SimdTest, ElementWiseKernelsBitIdenticalAcrossIsas) {
  for (int64_t n : kLaneSizes) {
    Rng rng(300 + n);
    la::Vector x(static_cast<size_t>(n)), y0(static_cast<size_t>(n));
    for (double& v : x) v = rng.Gaussian();
    for (double& v : y0) v = rng.Gaussian();
    std::vector<int32_t> map(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      map[static_cast<size_t>(i)] = static_cast<int32_t>(2 * i);
    }

    // Scalar reference pass.
    la::Vector axpy_ref, scale_ref, sig_ref, scat_ref, rot_x_ref, rot_y_ref;
    {
      ScopedIsa pin(la::simd::Isa::kScalar);
      const la::simd::KernelTable* t = la::simd::ActiveTable();
      axpy_ref = y0;
      t->axpy(1.7, x.data(), axpy_ref.data(), n);
      scale_ref = y0;
      t->scale(0.3, scale_ref.data(), n);
      sig_ref = y0;
      t->sigma_sub(2.0, x.data(), sig_ref.data(), n);
      scat_ref.assign(static_cast<size_t>(2 * n), 0.5);
      t->scatter_axpy(0.9, x.data(), map.data(), n, scat_ref.data());
      rot_x_ref = x;
      rot_y_ref = y0;
      t->rotate(0.8, -0.6, rot_x_ref.data(), rot_y_ref.data(), n);
    }
    for (la::simd::Isa isa : la::simd::AvailableIsas()) {
      if (isa == la::simd::Isa::kScalar) continue;
      ScopedIsa pin(isa);
      const la::simd::KernelTable* t = la::simd::ActiveTable();
      la::Vector out = y0;
      t->axpy(1.7, x.data(), out.data(), n);
      EXPECT_EQ(out, axpy_ref) << la::simd::IsaName(isa) << " axpy n=" << n;
      out = y0;
      t->scale(0.3, out.data(), n);
      EXPECT_EQ(out, scale_ref) << la::simd::IsaName(isa) << " scale n=" << n;
      out = y0;
      t->sigma_sub(2.0, x.data(), out.data(), n);
      EXPECT_EQ(out, sig_ref) << la::simd::IsaName(isa)
                              << " sigma_sub n=" << n;
      out.assign(static_cast<size_t>(2 * n), 0.5);
      t->scatter_axpy(0.9, x.data(), map.data(), n, out.data());
      EXPECT_EQ(out, scat_ref) << la::simd::IsaName(isa)
                               << " scatter_axpy n=" << n;
      la::Vector rot_x = x;
      out = y0;
      t->rotate(0.8, -0.6, rot_x.data(), out.data(), n);
      EXPECT_EQ(rot_x, rot_x_ref) << la::simd::IsaName(isa)
                                  << " rotate x n=" << n;
      EXPECT_EQ(out, rot_y_ref) << la::simd::IsaName(isa)
                                << " rotate y n=" << n;
    }
  }
}

/// Satellite: reduction kernels must be numerically right and bit-stable
/// within each ISA at every remainder-lane size.
TEST(SimdTest, ReductionKernelsPerIsa) {
  for (la::simd::Isa isa : la::simd::AvailableIsas()) {
    ScopedIsa pin(isa);
    const la::simd::KernelTable* t = la::simd::ActiveTable();
    for (int64_t n : kLaneSizes) {
      Rng rng(400 + n);
      la::Vector x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
      for (double& v : x) v = rng.Gaussian();
      for (double& v : y) v = rng.Gaussian();
      long double dot_ref = 0.0L, dist_ref = 0.0L;
      for (int64_t i = 0; i < n; ++i) {
        const size_t s = static_cast<size_t>(i);
        dot_ref += static_cast<long double>(x[s]) * y[s];
        const long double d = static_cast<long double>(x[s]) - y[s];
        dist_ref += d * d;
      }
      const double dot = t->dot(x.data(), y.data(), n);
      const double dist = t->squared_distance(x.data(), y.data(), n);
      const double tol = 1e-12 * static_cast<double>(n) + 1e-12;
      EXPECT_NEAR(dot, static_cast<double>(dot_ref), tol)
          << la::simd::IsaName(isa) << " dot n=" << n;
      EXPECT_NEAR(dist, static_cast<double>(dist_ref), tol)
          << la::simd::IsaName(isa) << " squared_distance n=" << n;
      EXPECT_EQ(dot, t->dot(x.data(), y.data(), n));
      EXPECT_EQ(dist, t->squared_distance(x.data(), y.data(), n));
    }
  }
}

TEST(SvdTest, RecoversLowRankMatrix) {
  Rng rng(15);
  la::DenseMatrix u(40, 3), v(3, 20);
  for (auto& value : u.data()) value = rng.Gaussian();
  for (auto& value : v.data()) value = rng.Gaussian();
  const la::DenseMatrix m = la::MatMul(u, v);  // rank 3 by construction
  auto svd = la::TruncatedSvd(m, 5);
  ASSERT_TRUE(svd.ok());
  EXPECT_GT(svd->singular_values[2], 1e-6);
  EXPECT_LT(svd->singular_values[3], 1e-6 * svd->singular_values[0]);
}

}  // namespace
}  // namespace sgla
