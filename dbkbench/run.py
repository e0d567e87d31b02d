"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 dbkbench/run.py --workload retrieve_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same operations untraced and then traced, and reports the
per-layer metrics, the tracing overhead and the unattributed share.  Every
line but the last is a human-readable report; the last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_program() -> str | None:
    """Put the checkout's ``src`` first on the path; returns an error or None."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return f"no program sources at {src}/repro"
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        return f"imported repro from {repro.__file__}, not from {src}"
    return None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    error = _import_program()
    if error is not None:
        print(f"dbkbench: {error}", file=sys.stderr)
        return 2
    from dbkbench import spec

    if args.workload not in spec.WORKLOADS:
        print(f"dbkbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".dbkbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    outdir = os.path.join(ROOT, ".dbkbench_out")
    os.makedirs(outdir, exist_ok=True)
    from dbkbench.common import steal_seconds

    stolen = steal_seconds()
    try:
        if args.workload == "served_mixed":
            from dbkbench.served import run_served

            report = run_served(args, ROOT, workdir, outdir)
        else:
            from dbkbench.measure import run_in_process

            report = run_in_process(args, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.setdefault("meta", {})["host_steal_s"] = steal_seconds() - stolen
    return emit(args, report)


def emit(args: argparse.Namespace, report: dict) -> int:
    """Print the report lines and the final JSON line."""
    from dbkbench import spec
    from dbkbench.common import metadata

    meta = metadata(ROOT, args.seed)
    meta.update(report.get("meta", {}))
    print(f"# dbkbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print("inputs " + json.dumps(report["inputs"], sort_keys=True))
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.WORKLOAD_SPECIFIC + spec.LAYER}
    samples = report.get("samples", {})
    for name, value in report["report"].items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"metric {name} = {value:.6g} {units.get(name, '')}{count}")
    for line in report.get("notes", []):
        print(f"note {line}")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    wanted = (
        [name for name, *_ in spec.END_TO_END]
        if args.trace == 0
        else [name for name, *_ in spec.traced_metrics()]
    )
    metrics = {name: {"value": report["report"][name], "unit": units[name]} for name in wanted}
    print(
        json.dumps(
            {
                "correct": not report["failures"],
                "attempted": max(report["attempted"], 1),
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
