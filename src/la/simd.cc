#include "la/simd.h"

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>

namespace sgla {
namespace la {
namespace simd {

// Per-ISA tables are provided by their own translation units, each compiled
// with that ISA's -m flags (see CMakeLists.txt). When the toolchain cannot
// build a path, CMake omits the TU and leaves the matching SGLA_SIMD_HAVE_*
// macro undefined; the stubs below then keep the linker satisfied with a
// null table, which the availability logic treats as "not compiled in".
#if !defined(SGLA_SIMD_HAVE_AVX2)
const KernelTable* Avx2Table() { return nullptr; }
#endif
#if !defined(SGLA_SIMD_HAVE_AVX512)
const KernelTable* Avx512Table() { return nullptr; }
#endif

namespace {

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return ScalarTable();
    case Isa::kAvx2:
      return Avx2Table();
    case Isa::kAvx512:
      return Avx512Table();
  }
  return nullptr;
}

bool HostSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
    case Isa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The AVX2 TU is compiled with -mfma (reduction kernels fuse), so the
      // host must have both.
      return isa == Isa::kAvx2
                 ? __builtin_cpu_supports("avx2") &&
                       __builtin_cpu_supports("fma")
                 : __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

// The resolved dispatch state. `g_table` is what the hot path loads (one
// acquire load per kernel call); `g_isa` mirrors it for diagnostics. Both
// are written together under first-use resolution or SetActiveForTesting.
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_isa{static_cast<int>(Isa::kScalar)};
std::once_flag g_resolve_once;

void Resolve() {
  std::string warning;
  const Isa isa = ResolveIsaSpec(std::getenv("SGLA_ISA"), &warning);
  if (!warning.empty()) std::cerr << warning << std::endl;
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_table.store(TableFor(isa), std::memory_order_release);
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (Isa isa : kAllIsas) {
    if (TableFor(isa) != nullptr && HostSupports(isa)) out.push_back(isa);
  }
  return out;
}

bool IsaAvailable(Isa isa) {
  return TableFor(isa) != nullptr && HostSupports(isa);
}

Isa ResolveIsaSpec(const char* spec, std::string* warning) {
  const Isa best = AvailableIsas().back();  // kScalar is always present
  if (spec == nullptr || *spec == '\0') return best;
  const std::string token(spec);
  for (Isa isa : kAllIsas) {
    if (token != IsaName(isa)) continue;
    if (IsaAvailable(isa)) return isa;
    if (warning != nullptr) {
      *warning = std::string("[SGLA WARNING] SGLA_ISA='") + token +
                 "' is " +
                 (TableFor(isa) == nullptr ? "not compiled into this binary"
                                           : "not supported by this host") +
                 "; falling back to auto-detected '" + IsaName(best) + "'";
    }
    return best;
  }
  if (warning != nullptr) {
    *warning = std::string("[SGLA WARNING] SGLA_ISA='") + token +
               "' is not one of scalar|avx2|avx512; falling back to "
               "auto-detected '" +
               IsaName(best) + "'";
  }
  return best;
}

const KernelTable* ActiveTable() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table != nullptr) return table;
  std::call_once(g_resolve_once, Resolve);
  return g_table.load(std::memory_order_acquire);
}

Isa ActiveIsa() {
  ActiveTable();  // force first-use resolution
  return static_cast<Isa>(g_isa.load(std::memory_order_relaxed));
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

bool SetActiveForTesting(Isa isa) {
  if (!IsaAvailable(isa)) return false;
  std::call_once(g_resolve_once, [] {});  // claim resolution; env is ignored
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_table.store(TableFor(isa), std::memory_order_release);
  return true;
}

}  // namespace simd
}  // namespace la
}  // namespace sgla
