"""Perf-regression gate: view-cache speedups and kernel-executor floors.

Every gate is on a *ratio* (numerator and denominator measured in
the same process, same machine — wall-clock medians alone are too noisy to
gate on in shared CI runners):

1. **view cache** — re-runs the cache benchmark scenarios at the committed
   baseline's tier and fails if any warm-query speedup has fallen below
   ``THRESHOLD`` x the speedup recorded in ``BENCH_engine.json``;
2. **kernel executor** — re-runs the recursive chain/component scenarios
   under both executors and fails if the kernel's speedup over the nested
   reference drops below the absolute floor ``KERNEL_MIN_VS_NESTED``;
3. **durability** — re-runs the bulk-insert pairing and fails if the
   median per-round durable/plain ratio exceeds ``WAL_MAX_OVERHEAD`` or
   log replay falls below ``REPLAY_MIN_ROWS_PER_S``;
4. **analysis overhead** — re-runs repeat point queries with the planner
   consuming the cached abstract-interpretation summary vs the analysis
   flag off and fails if the cached-hit ratio exceeds
   ``ANALYSIS_MAX_OVERHEAD``;
5. **server isolation** — re-runs the concurrent-traffic benchmark
   against a loopback query server and fails if the readers-under-writes
   p50 exceeds ``SERVER_MAX_P50_RATIO`` x the read-only p50 (MVCC
   snapshot reads must keep the writer off the readers' latency path).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --baseline BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run_benchmarks import (
    TIERS,
    analysis_metrics,
    cache_metrics,
    durability_metrics,
    scenarios,
    server_metrics,
)

#: A fresh warm-query speedup below this fraction of the committed one fails.
THRESHOLD = 0.5

#: Absolute floor for the kernel executor on the recursive scenarios.
KERNEL_MIN_VS_NESTED = 10.0

#: Scenarios the kernel gate measures.
KERNEL_SCENARIOS = ("recursive/chain", "recursive/component")

#: Durable-commit ceiling: one bulk transaction may cost at most this much
#: relative to the same mutation on a plain in-memory knowledge base.
WAL_MAX_OVERHEAD = 1.25

#: Log-replay floor during recovery, in rows applied per second.
REPLAY_MIN_ROWS_PER_S = 1_000.0

#: Repeat-query ceiling with the planner consuming a *cached* analysis
#: summary, relative to REPRO_PLAN_ANALYSIS=off: the cached-hit path (a
#: fingerprint check plus dictionary lookups) must stay within 2%.
ANALYSIS_MAX_OVERHEAD = 1.02

#: Readers-under-writes p50 ceiling, relative to the read-only p50 of the
#: same traffic in the same process.  Snapshot publication is O(#relations)
#: pointer work off the read path, so a live writer may cost the median
#: read at most 30% — cold re-evaluations right after a publication land
#: in the p99, which is deliberately not gated (it measures workload cost,
#: not isolation).
SERVER_MAX_P50_RATIO = 1.3


def kernel_gate(sizes, repeats: int) -> list[str]:
    """Fresh kernel-vs-nested floor; returns failures."""
    failures = []
    runners = scenarios(sizes)
    for name in KERNEL_SCENARIOS:
        runner = runners[name]
        medians = {}
        for executor in ("nested", "kernel"):
            medians[executor] = statistics.median(
                runner(executor)[0] for _ in range(repeats)
            )
        vs_nested = medians["nested"] / medians["kernel"] if medians["kernel"] else 0.0
        verdict = "ok" if vs_nested >= KERNEL_MIN_VS_NESTED else "REGRESSION"
        print(
            f"{name:30s} kernel {vs_nested:.1f}x nested "
            f"(>= {KERNEL_MIN_VS_NESTED:.1f}x)  {verdict}"
        )
        if vs_nested < KERNEL_MIN_VS_NESTED:
            failures.append(name)
    return failures


def durability_gate(sizes, repeats: int) -> list[str]:
    """Fresh WAL-overhead ceiling and replay-throughput floor."""
    failures = []
    fresh = durability_metrics(sizes, repeats)
    ratio = fresh["wal_overhead"]["ratio"] or float("inf")
    verdict = "ok" if ratio <= WAL_MAX_OVERHEAD else "REGRESSION"
    print(
        f"{'durability/wal_overhead':30s} measured {ratio:.3f}x plain  "
        f"required <= {WAL_MAX_OVERHEAD:.2f}x  {verdict}"
    )
    if ratio > WAL_MAX_OVERHEAD:
        failures.append("durability/wal_overhead")
    rows_per_s = fresh["replay"]["rows_per_s"] or 0.0
    verdict = "ok" if rows_per_s >= REPLAY_MIN_ROWS_PER_S else "REGRESSION"
    print(
        f"{'durability/replay':30s} measured {rows_per_s:.0f} rows/s  "
        f"required >= {REPLAY_MIN_ROWS_PER_S:.0f}  {verdict}"
    )
    if rows_per_s < REPLAY_MIN_ROWS_PER_S:
        failures.append("durability/replay")
    return failures


def analysis_gate(sizes, repeats: int) -> list[str]:
    """Cached-summary overhead ceiling on repeat point queries."""
    fresh = analysis_metrics(sizes, repeats)
    ratio = fresh["overhead"]["ratio"] or float("inf")
    verdict = "ok" if ratio <= ANALYSIS_MAX_OVERHEAD else "REGRESSION"
    print(
        f"{'analysis/cached_overhead':30s} measured {ratio:.3f}x syntactic  "
        f"required <= {ANALYSIS_MAX_OVERHEAD:.2f}x  {verdict}"
    )
    if ratio > ANALYSIS_MAX_OVERHEAD:
        return ["analysis/cached_overhead"]
    return []


def server_gate(sizes, repeats: int) -> list[str]:
    """Readers-under-writes p50 ceiling over the loopback server."""
    fresh = server_metrics(sizes, repeats)
    ratio = fresh["mixed_over_read_p50"] or float("inf")
    read_p50 = fresh["read_only"]["p50_ms"]
    mixed_p50 = fresh["readers_under_writes"]["p50_ms"]
    verdict = "ok" if ratio <= SERVER_MAX_P50_RATIO else "REGRESSION"
    print(
        f"{'server/readers_under_writes':30s} p50 {mixed_p50}ms vs "
        f"read-only {read_p50}ms = {ratio:.3f}x  "
        f"required <= {SERVER_MAX_P50_RATIO:.1f}x  {verdict}"
    )
    if ratio > SERVER_MAX_P50_RATIO:
        return ["server/readers_under_writes"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    parser.add_argument(
        "--threshold", type=float, default=THRESHOLD,
        help="minimum fresh/baseline speedup ratio",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    recorded = baseline.get("cache", {})
    warm_scenarios = {
        name: entry
        for name, entry in recorded.items()
        if name.startswith("warm_repeat/") and entry.get("speedup")
    }
    if not warm_scenarios:
        print(f"no cached warm-query scenarios in {args.baseline}; nothing to gate")
        return 1

    tier = baseline.get("meta", {}).get("tier", "smoke")
    sizes = TIERS[tier]
    fresh = cache_metrics(sizes, sizes["repeats"])

    failures = []
    for name, entry in sorted(warm_scenarios.items()):
        required = entry["speedup"] * args.threshold
        measured = fresh[name]["speedup"] or 0.0
        verdict = "ok" if measured >= required else "REGRESSION"
        print(
            f"{name:30s} baseline {entry['speedup']:.1f}x  "
            f"measured {measured:.1f}x  required >= {required:.1f}x  {verdict}"
        )
        if measured < required:
            failures.append(name)

    print()
    failures.extend(kernel_gate(sizes, sizes["repeats"]))
    print()
    failures.extend(durability_gate(sizes, sizes["repeats"]))
    print()
    failures.extend(analysis_gate(sizes, sizes["repeats"]))
    print()
    failures.extend(server_gate(sizes, sizes["repeats"]))

    if failures:
        print(f"\nperf regression in: {', '.join(failures)}")
        return 1
    print(
        "\ncache warm-query speedups, kernel floors, durability budgets, "
        "analysis overhead, and server isolation all within bounds"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
