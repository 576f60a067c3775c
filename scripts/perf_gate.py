#!/usr/bin/env python3
"""Perf regression gate over google-benchmark JSON and loadgen latency JSON.

Usage:
  perf_gate.py BASELINE.json CURRENT.json             # microbench mode
  perf_gate.py --latency BASELINE.json CURRENT.json   # RPC tail-latency mode

Microbench mode — three checks, over one entry per bench name: a bench run
with --benchmark_repetitions appears once per repetition, and the gate reads
the median repetition's time and the largest allocs_per_iter (aggregate rows
are skipped). Every timing-gated bench in CURRENT must carry at least
MIN_REPETITIONS (5) repetitions — a single 0.05 s run of a bench that fits a
handful of iterations is one draw of the host's noise.

1. **Zero-allocation contract (hard fail).** The steady-state engine benches
   (`BM_EngineObjectiveSteadyState`, `BM_EngineAggregateSteadyState`) must
   report `allocs_per_iter == 0` in CURRENT. Full-solve and update benches
   legitimately allocate and are recorded, not gated.

2. **Normalized timing ratio gate.** For every gated bench present in both
   files (TIMING_GATED prefixes; the rest are printed informationally,
   never gated), compute ratio = current_ns / baseline_ns — cpu_time, or
   real_time for benches registered with UseRealTime() (google-benchmark
   appends "/real_time" to their names; their work runs on pool or session
   workers, so the caller's cpu_time would under-report it) — then
   divide by the **median ratio across the gated benches** — the median
   absorbs machine-speed differences between the baseline machine and the
   runner, so the gate flags benches that regressed *relative to the rest of
   the suite*, not slow hardware. Normalized ratio > FAIL_RATIO (1.5)
   fails, > WARN_RATIO (1.2) warns.

3. **Absolute raw-ratio ceiling.** Median normalization is blind to a
   *uniform* regression: if every gated bench slows down 10x together, every
   normalized ratio is still 1.0. Any gated bench with a raw ratio above
   RAW_FAIL_RATIO (3.0) therefore fails outright. The ceiling is deliberately
   loose — CI runners legitimately differ from the baseline machine by
   2x-ish — so it only trips on regressions far past machine variance; the
   normalized gate remains the sensitive check. Benches reporting a time
   of 0 (timer granularity underflow at tiny budgets) are skipped with a
   warning instead of silently dropped.

Latency mode (--latency) — gates tools/loadgen.cc reports:

- `errors` must be 0 (typed RESOURCE_EXHAUSTED rejections are *not* errors).
- p99 ratio current/baseline > P99_FAIL_RATIO (4.0) fails, > P99_WARN_RATIO
  (2.0) warns. Tail latency on shared runners is far noisier than cpu_time,
  hence the wide thresholds; the gate exists to catch serving-path
  regressions measured in multiples, not percents.
- Reports whose `sanitizer` tag is not "none" are rejected on either side:
  sanitizer builds are 10-50x slower and a sanitizer-tagged baseline would
  mask any real regression (the same reason check.sh refuses
  `--asan --bench-smoke`).

Re-baselining: run `scripts/check.sh --bench-smoke` (microbench) or
`scripts/check.sh --rpc-load` (latency) — both refuse sanitizer builds —
or download the BENCH artifact from a trusted CI run, and commit the JSON
as BENCH_baseline.json / BENCH_rpc_baseline.json. Do this whenever benches
are added/renamed or an intentional perf trade-off moves the numbers (see
DESIGN.md, "Perf regression gate").
"""

import json
import statistics
import sys

FAIL_RATIO = 1.5
WARN_RATIO = 1.2
# Absolute ceiling on raw (un-normalized) ratios: catches uniform
# regressions the median normalization cancels out. Loose on purpose —
# baseline-vs-runner machine variance alone is routinely ~2x.
RAW_FAIL_RATIO = 3.0
MIN_REPETITIONS = 5
P99_FAIL_RATIO = 4.0
P99_WARN_RATIO = 2.0
ALLOC_GATED = ("BM_EngineObjectiveSteadyState", "BM_EngineAggregateSteadyState")
# Benches whose cpu_time measures real work on the calling thread, or
# (those registered with UseRealTime(): coarsening and the end-to-end
# solves, whose work runs on pool or session workers) whose real_time does.
TIMING_GATED = (
    "BM_EngineObjectiveSteadyState",
    "BM_EngineAggregateSteadyState",
    "BM_EngineUpdateGraphValueOnly",
    "BM_CoarsenGraph",
    "BM_EngineSolveCluster",
    "BM_EngineSolveFastTier",
    "BM_EngineResolveAfterUpdate",
)


def timed_field(name):
    """The time a bench is gated on: wall-clock for UseRealTime() benches
    (their work runs on pool or session workers), the calling thread's
    cpu_time otherwise."""
    return "real_time" if name.endswith("/real_time") else "cpu_time"


def load_benches(path):
    """One entry per bench name: the median of each time over its
    repetitions, the largest allocs_per_iter (the zero-allocation contract
    holds in every repetition), and the repetition count."""
    with open(path) as f:
        report = json.load(f)
    runs = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if name:
            runs.setdefault(name, []).append(bench)
    benches = {}
    for name, repetitions in runs.items():
        merged = {"repetitions": len(repetitions)}
        for field in ("cpu_time", "real_time"):
            values = [r[field] for r in repetitions if r.get(field) is not None]
            if values:
                merged[field] = statistics.median(values)
        allocs = [r["allocs_per_iter"] for r in repetitions
                  if r.get("allocs_per_iter") is not None]
        if allocs:
            merged["allocs_per_iter"] = max(allocs)
        benches[name] = merged
    return benches


def microbench_gate(baseline_path, current_path):
    baseline = load_benches(baseline_path)
    current = load_benches(current_path)
    failures = []
    warnings = []

    # 1. Allocation contract.
    alloc_checked = 0
    for name, bench in sorted(current.items()):
        if not name.startswith(ALLOC_GATED):
            continue
        alloc_checked += 1
        allocs = bench.get("allocs_per_iter")
        if allocs is None or allocs > 0:
            failures.append(f"{name}: allocs_per_iter={allocs} (contract: 0)")
    if alloc_checked == 0:
        failures.append("no steady-state engine benches found in current run")

    # 2 + 3. Machine-normalized ratios plus the absolute raw ceiling, each
    # on the median of at least MIN_REPETITIONS repetitions.
    for name, bench in sorted(current.items()):
        if (name.startswith(TIMING_GATED)
                and bench["repetitions"] < MIN_REPETITIONS):
            failures.append(
                f"{name}: {bench['repetitions']} repetition(s) "
                f"(gate needs the median of {MIN_REPETITIONS})")
    ratios = {}
    informational = {}
    for name, bench in current.items():
        base = baseline.get(name)
        if base is None:
            continue
        field = timed_field(name)
        base_ns = base.get(field)
        cur_ns = bench.get(field)
        if base_ns is None or cur_ns is None:
            continue
        if base_ns <= 0 or cur_ns <= 0:
            # Timer granularity underflow at tiny --benchmark_min_time
            # budgets: a 0 here is a measurement artifact, but silently
            # dropping the bench would shrink the gate without a trace.
            warnings.append(
                f"{name}: {field} is 0 in "
                f"{'baseline' if base_ns <= 0 else 'current'}; skipped")
            continue
        if name.startswith(TIMING_GATED):
            ratios[name] = cur_ns / base_ns
        else:
            informational[name] = cur_ns / base_ns
    if ratios:
        median = statistics.median(ratios.values())
        print(f"median raw ratio (machine-speed factor): {median:.3f}")
        for name, ratio in sorted(ratios.items()):
            normalized = ratio / median
            marker = " "
            if normalized > FAIL_RATIO:
                failures.append(
                    f"{name}: normalized ratio {normalized:.2f} > {FAIL_RATIO}")
                marker = "F"
            elif ratio > RAW_FAIL_RATIO:
                # The uniform-regression backstop: normalization can hide a
                # fleet-wide slowdown, the raw ceiling cannot.
                failures.append(
                    f"{name}: raw ratio {ratio:.2f} > {RAW_FAIL_RATIO} "
                    f"(absolute ceiling; uniform regressions are invisible "
                    f"to the normalized gate)")
                marker = "F"
            elif normalized > WARN_RATIO:
                warnings.append(
                    f"{name}: normalized ratio {normalized:.2f} > {WARN_RATIO}")
                marker = "W"
            print(f"  [{marker}] {name}: raw {ratio:.2f} "
                  f"normalized {normalized:.2f}")
        for name, ratio in sorted(informational.items()):
            print(f"  [i] {name}: raw {ratio:.2f} (not gated)")
    else:
        warnings.append("no gated benches shared between baseline and current")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        sys.exit(1)
    print(f"OK: {alloc_checked} alloc-gated benches clean, "
          f"{len(ratios)} timing ratios within {FAIL_RATIO}x of baseline")


def load_latency(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("kind") != "sgla_rpc_loadgen":
        sys.exit(f"ERROR: {path} is not a loadgen report "
                 f"(kind={report.get('kind')!r})")
    return report


def latency_gate(baseline_path, current_path):
    baseline = load_latency(baseline_path)
    current = load_latency(current_path)
    failures = []
    warnings = []

    for label, report, path in (("baseline", baseline, baseline_path),
                                ("current", current, current_path)):
        tag = report.get("sanitizer", "unknown")
        if tag != "none":
            sys.exit(f"ERROR: {label} report {path} was produced by a "
                     f"'{tag}'-sanitized build; sanitizer timings are not "
                     f"comparable. Re-run without sanitizers.")

    errors = current.get("errors", -1)
    if errors != 0:
        failures.append(f"loadgen reported {errors} request errors "
                        f"(rejections are counted separately and are fine)")
    if current.get("requests", 0) <= 0:
        failures.append("loadgen report contains no requests")

    base_p99 = baseline.get("latency_ns", {}).get("p99", 0)
    cur_p99 = current.get("latency_ns", {}).get("p99", 0)
    if base_p99 > 0 and cur_p99 > 0:
        ratio = cur_p99 / base_p99
        print(f"p99 latency: baseline {base_p99 / 1e6:.3f} ms, "
              f"current {cur_p99 / 1e6:.3f} ms, ratio {ratio:.2f}")
        if ratio > P99_FAIL_RATIO:
            failures.append(
                f"p99 ratio {ratio:.2f} > {P99_FAIL_RATIO} (tail-latency "
                f"regression)")
        elif ratio > P99_WARN_RATIO:
            warnings.append(f"p99 ratio {ratio:.2f} > {P99_WARN_RATIO}")
    else:
        warnings.append("p99 missing from baseline or current; not gated")
    for p in ("p50", "p95"):
        base_v = baseline.get("latency_ns", {}).get(p, 0)
        cur_v = current.get("latency_ns", {}).get(p, 0)
        if base_v > 0 and cur_v > 0:
            print(f"  [i] {p}: baseline {base_v / 1e6:.3f} ms, "
                  f"current {cur_v / 1e6:.3f} ms, ratio "
                  f"{cur_v / base_v:.2f} (informational)")
    # Fast-tier latencies ride along informationally: the nmi-gap gate owns
    # the fast tier's speedup contract, this gate owns only the exact tail.
    for p in ("p50", "p99"):
        cur_v = current.get("fast_latency_ns", {}).get(p, 0)
        if cur_v > 0:
            print(f"  [i] fast {p}: current {cur_v / 1e6:.3f} ms "
                  f"(informational; gated by the nmi-gap job)")

    for warning in warnings:
        print(f"WARNING: {warning}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        sys.exit(1)
    print(f"OK: {current.get('requests')} requests, "
          f"{current.get('ok')} ok, {current.get('rejected')} rejected, "
          f"0 errors; p99 within {P99_FAIL_RATIO}x of baseline")


def main():
    args = sys.argv[1:]
    latency = False
    if args and args[0] == "--latency":
        latency = True
        args = args[1:]
    if len(args) != 2:
        sys.exit(__doc__)
    if latency:
        latency_gate(args[0], args[1])
    else:
        microbench_gate(args[0], args[1])


if __name__ == "__main__":
    main()
