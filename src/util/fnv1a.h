#ifndef SGLA_UTIL_FNV1A_H_
#define SGLA_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/sparse.h"

namespace sgla {
namespace util {

/// 64-bit FNV-1a offset basis: the hash of no bytes.
constexpr uint64_t kFnv1aBasis = 1469598103934665603ull;

/// Folds `bytes` bytes at `data` into `hash` with 64-bit FNV-1a; chained
/// calls hash several buffers as one stream. Multi-byte values hash in the
/// host's byte order, so these hashes are fingerprints for one host (the
/// determinism and recovery gates compare runs on one machine).
inline uint64_t Fnv1a(const void* data, size_t bytes,
                      uint64_t hash = kFnv1aBasis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Folds the eight bytes of `x` low byte first: the same stream on every
/// host, whatever its byte order.
inline uint64_t Fnv1aU64(uint64_t x, uint64_t hash) {
  unsigned char bytes[8];
  for (int b = 0; b < 8; ++b) {
    bytes[b] = static_cast<unsigned char>(x >> (8 * b));
  }
  return Fnv1a(bytes, sizeof(bytes), hash);
}

/// FNV-1a of a vector's elements as raw bytes.
template <typename T>
uint64_t HashVector(const std::vector<T>& v) {
  return Fnv1a(v.data(), v.size() * sizeof(T));
}

/// FNV-1a of a CSR matrix: row_ptr, col_idx, then values, as one stream.
inline uint64_t HashCsr(const la::CsrMatrix& m) {
  uint64_t hash = Fnv1a(m.row_ptr.data(), m.row_ptr.size() * sizeof(int64_t));
  hash = Fnv1a(m.col_idx.data(), m.col_idx.size() * sizeof(int64_t), hash);
  return Fnv1a(m.values.data(), m.values.size() * sizeof(double), hash);
}

}  // namespace util
}  // namespace sgla

#endif  // SGLA_UTIL_FNV1A_H_
