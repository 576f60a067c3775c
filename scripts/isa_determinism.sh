#!/usr/bin/env bash
# Cross-ISA determinism gate, registered as the `isa_determinism` ctest and
# run by the CI determinism job. For each ISA under test — scalar, plus
# every vector ISA up to the best one the host supports (avx2, avx512) —
# sgla_bitdump runs at SGLA_THREADS={1,4} for both serving tiers, and every
# dump must be byte-identical WITHIN that ISA. Dumps are never compared
# across ISAs: reduction kernels associate differently per path (see
# src/la/simd_table.h).
#
# Usage: isa_determinism.sh <path-to-sgla_bitdump> [dump-dir]
#   dump-dir  keep the dumps there (<isa>-<quality>-t<threads>.txt, plus the
#             stderr of each run as .err); by default they go to a temporary
#             directory that is removed on exit.
set -euo pipefail

bitdump="${1:?usage: isa_determinism.sh <path-to-sgla_bitdump> [dump-dir]}"

if [[ $# -ge 2 ]]; then
  workdir="$2"
  mkdir -p "${workdir}"
else
  workdir="$(mktemp -d)"
  trap 'rm -rf "${workdir}"' EXIT
fi

# Dispatch order, lowest first (la::simd::Isa); the host runs every ISA up
# to the best one it reports.
best="$("${bitdump}" --print-best-isa)"
isas=()
for isa in scalar avx2 avx512; do
  isas+=("${isa}")
  [[ "${isa}" == "${best}" ]] && break
done
if [[ "${isas[-1]}" != "${best}" ]]; then
  echo "FAIL: sgla_bitdump reports unknown best ISA '${best}'" >&2
  exit 1
fi
echo "ISA paths under test: ${isas[*]}"

status=0
for isa in "${isas[@]}"; do
  # The fast tier must be exactly as reproducible as exact: the coarsening
  # plan runs in plain TUs, so its dump (plan hash + coarse view hashes +
  # coarse solve) is covered by the same within-ISA byte-identity contract.
  for quality in exact fast; do
    reference=""
    ok=1
    for threads in 1 4; do
      dump="${workdir}/${isa}-${quality}-t${threads}.txt"
      SGLA_ISA="${isa}" SGLA_THREADS="${threads}" \
        "${bitdump}" --quality "${quality}" > "${dump}" 2> "${dump%.txt}.err"
      if [[ -z "${reference}" ]]; then
        reference="${dump}"
        continue
      fi
      if ! diff -q "${reference}" "${dump}" > /dev/null; then
        echo "FAIL: ${isa}/${quality} dump differs at" \
             "SGLA_THREADS=${threads} (vs t=1)" >&2
        diff "${reference}" "${dump}" | head -20 >&2 || true
        ok=0
        status=1
      fi
    done
    if [[ "${ok}" == "1" ]]; then
      echo "OK: ${isa}/${quality} bit-stable across SGLA_THREADS={1,4}"
    fi
  done
done

exit "${status}"
