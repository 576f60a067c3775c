#ifndef SGLA_LA_SIMD_H_
#define SGLA_LA_SIMD_H_

#include <string>
#include <vector>

#include "la/simd_table.h"

namespace sgla {
namespace la {
namespace simd {

/// The ISA paths the dispatcher knows about. Order encodes preference:
/// auto-detection picks the highest value that is both compiled in and
/// supported by the host. Hosts without AVX2 (every non-x86 one included)
/// run scalar.
enum class Isa { kScalar, kAvx2, kAvx512 };

/// Lowercase token of an ISA ("scalar", "avx2", "avx512") — the exact
/// spelling SGLA_ISA accepts.
const char* IsaName(Isa isa);

/// The kernel table every la/core/cluster hot loop dispatches through.
/// Resolved once, on first use, from SGLA_ISA (see ResolveIsaSpec below);
/// afterwards a single atomic load. Never null.
const KernelTable* ActiveTable();

/// The ISA ActiveTable() currently dispatches to.
Isa ActiveIsa();
const char* ActiveIsaName();

/// Compiled ISAs the *host* can execute (cpuid-checked), ascending. The
/// last entry is what auto-detection picks.
std::vector<Isa> AvailableIsas();

/// True iff `isa` is compiled in and executable on this host.
bool IsaAvailable(Isa isa);

/// Parses an SGLA_ISA-style spec and applies the availability rules:
///   - null/empty spec: auto-detect (best available ISA), no warning;
///   - a known token naming an available ISA: that ISA;
///   - a known token naming a compiled-out or host-unsupported ISA, or an
///     unknown token: auto-detect, and `*warning` (if non-null) receives a
///     "[SGLA WARNING] ..." line explaining the rejection.
/// Pure function of (spec, host capabilities) — the unit-test hook for the
/// parsing rules, and exactly what first-use resolution runs on
/// getenv("SGLA_ISA").
Isa ResolveIsaSpec(const char* spec, std::string* warning);

/// Pins the dispatch table to `isa` for the current process. Returns false
/// (and changes nothing) when the ISA is unavailable on this host. Test-only
/// by contract: production code selects the ISA through SGLA_ISA; callers
/// must not flip the table while kernels run on other threads.
bool SetActiveForTesting(Isa isa);

}  // namespace simd
}  // namespace la
}  // namespace sgla

#endif  // SGLA_LA_SIMD_H_
