#!/usr/bin/env bash
# Cross-ISA determinism gate, registered as the `isa_determinism` ctest (and
# run standalone by the CI determinism job). For each ISA under test —
# scalar always, plus the best ISA the host supports when that differs —
# sgla_bitdump runs at SGLA_THREADS={1,4} and every dump must be
# byte-identical WITHIN that ISA. Dumps are never compared across ISAs:
# reduction kernels associate differently per path (see src/la/simd_table.h).
#
# Usage: isa_determinism.sh <path-to-sgla_bitdump>
set -euo pipefail

bitdump="${1:?usage: isa_determinism.sh <path-to-sgla_bitdump>}"

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

isas=(scalar)
best="$("${bitdump}" --print-best-isa)"
if [[ "${best}" != "scalar" ]]; then
  isas+=("${best}")
fi

status=0
for isa in "${isas[@]}"; do
  # The fast tier must be exactly as reproducible as exact: the coarsening
  # plan runs in plain TUs, so its dump (plan hash + coarse view hashes +
  # coarse solve) is covered by the same within-ISA byte-identity contract.
  for quality in exact fast; do
    reference=""
    for threads in 1 4; do
      dump="${workdir}/${isa}-${quality}-t${threads}.txt"
      SGLA_ISA="${isa}" SGLA_THREADS="${threads}" \
        "${bitdump}" --quality "${quality}" > "${dump}" 2> "${dump}.err"
      if [[ -z "${reference}" ]]; then
        reference="${dump}"
        continue
      fi
      if ! diff -q "${reference}" "${dump}" > /dev/null; then
        echo "FAIL: ${isa}/${quality} dump differs at" \
             "SGLA_THREADS=${threads} (vs t=1)" >&2
        diff "${reference}" "${dump}" | head -20 >&2 || true
        status=1
      fi
    done
    if [[ "${status}" == "0" ]]; then
      echo "OK: ${isa}/${quality} bit-stable across SGLA_THREADS={1,4}"
    fi
  done
done

exit "${status}"
