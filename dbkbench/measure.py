"""The untraced and traced runs of an in-process workload."""

from __future__ import annotations

import gc
import os
import statistics

from dbkbench import common, spec, tracing
from dbkbench.inproc import IN_PROCESS

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def _specific(loop: common.ClosedLoop, workload, failed: int) -> dict:
    """Workload-specific end-to-end metrics (0 where they do not apply)."""
    writes = common.latency_summary(loop.writes)
    metrics = {name: 0.0 for name, *_ in spec.WORKLOAD_SPECIFIC}
    metrics["write_p50_ms"] = writes["p50_ms"]
    metrics["write_p95_ms"] = writes["p95_ms"]
    metrics["failed_share"] = failed / max(loop.attempted, 1)
    if hasattr(workload, "disk_bytes"):
        metrics["disk_bytes_per_write"] = workload.disk_bytes() / max(workload.acked, 1)
        metrics["recover_s"] = workload.recover_s
    return metrics


def _checked(loop: common.ClosedLoop, workload) -> tuple[dict, list[str], int]:
    """Run the workload's checks; returns (notes, failures, failed operations)."""
    checked, wrong = workload.check()
    failures = loop.errors + wrong
    notes = {"checked_answers": checked, "wrong_answers": len(wrong)}
    return notes, failures, loop.failed + len(wrong)


def run_in_process(args, workdir: str, outdir: str) -> dict:
    factory = IN_PROCESS[args.workload]
    if args.trace:
        return _traced(factory, args, workdir, outdir)
    setups = []
    workload = None
    probe = common.SpeedProbe()
    for _ in range(SETUPS):
        if workload is not None:
            # Free one set-up before the next, so that peak_rss_mb covers
            # one set of inputs plus the run, not two set-ups at once.
            workload.close()
            workload = None
            gc.collect()
        began = common.cpu_clock()
        workload = factory(args.seed, workdir)
        setups.append(probe.scaled(common.cpu_clock() - began))
    loop = common.ClosedLoop()
    try:
        completed = loop.run(workload.step, seconds=args.seconds)
        notes, failures, failed = _checked(loop, workload)
        reads = common.latency_summary(loop.reads)
        writes = common.latency_summary(loop.writes)
        report = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": completed / loop.busy_s,
            "read_p50_ms": reads["p50_ms"],
            "read_p95_ms": reads["p95_ms"],
            "peak_rss_mb": common.peak_rss_mb(),
            **_specific(loop, workload, failed),
        }
        inputs = workload.describe_inputs()
    finally:
        workload.close()
    meta = {
        "setups": len(setups),
        "client": "one in-process client, closed loop",
        **loop.probe_meta(),
    }
    if hasattr(workload, "directory"):
        meta["flush_policy"] = "fsync per committed write"
        meta["durable_filesystem"] = common.filesystem_of(workdir)
    return {
        "meta": meta,
        "inputs": inputs,
        "report": report,
        "samples": {
            "read_p50_ms": reads["n"], "read_p95_ms": reads["n"],
            "write_p50_ms": writes["n"], "write_p95_ms": writes["n"],
        },
        "notes": [f"{key}={value}" for key, value in notes.items()]
        + [
            f"ops={completed} busy_s={loop.busy_s:.3f} busy_cpu_s={loop.busy_cpu_s:.3f} "
            f"busy_wall_s={loop.wall_s:.3f} "
            f"reads_beyond_p95={reads['beyond_p95']}"
        ],
        "failures": failures,
        "attempted": loop.attempted,
        "failed": failed,
    }


def traced_loop(workload, recorder: tracing.Recorder, ops: int) -> common.ClosedLoop:
    """Run *ops* operations of *workload* with the layer wrappers installed."""
    loop = common.ClosedLoop()

    def step(index: int) -> dict:
        recorder.new_op()
        return workload.step(index)

    uninstall = tracing.install(recorder)
    try:
        loop.run(step, ops=ops)
    finally:
        uninstall()
    return loop


def _traced(factory, args, workdir: str, outdir: str) -> dict:
    """Untraced pass, the same operations traced, then untraced again.

    Each pass starts from fresh inputs.  The first pass fixes the operation
    count and gives the workload-specific metrics and checks; the last is
    the base of the tracing overhead, so both sides of that ratio run in a
    process that has already warmed up.
    """
    workload = factory(args.seed, workdir)
    first = common.ClosedLoop()
    try:
        count = first.run(workload.step, seconds=args.seconds / 2)
        notes, failures, failed = _checked(first, workload)
        specific = _specific(first, workload, failed)
        inputs = workload.describe_inputs()
    finally:
        workload.close()
    workload = None
    gc.collect()

    traced_workload = factory(args.seed, workdir, trace=True)
    recorder = tracing.Recorder()
    try:
        traced = traced_loop(traced_workload, recorder, count)
    finally:
        traced_workload.close()
    base_workload = factory(args.seed, workdir, trace=False)
    plain = common.ClosedLoop()
    try:
        plain.run(base_workload.step, ops=count)
    finally:
        base_workload.close()
    writes = getattr(traced_workload, "acked", 0)
    report = dict(specific)
    report.update(tracing.layer_metrics(recorder, count, writes))
    report["trace.overhead_ratio"] = traced.busy_s / plain.busy_s
    report["trace.base_ms_per_op"] = plain.busy_s / count * 1000
    # Spans are wall-clock times, so their share is taken of wall time.
    report["trace.unattributed_share"] = 1 - tracing.attributed_seconds(recorder) / traced.wall_s
    path = os.path.join(outdir, f"spans-{args.workload}-seed{args.seed}.json")
    recorder.dump(path)
    return {
        "meta": {"spans": os.path.relpath(path, os.path.dirname(outdir))},
        "inputs": inputs,
        "report": report,
        "notes": [f"{key}={value}" for key, value in notes.items()]
        + [
            f"ops={count} first_untraced_s={first.busy_s:.3f} traced_s={traced.busy_s:.3f} "
            f"untraced_s={plain.busy_s:.3f} "
            f"spans={len(recorder.spans)} traced_failed={traced.failed}",
            "self_ms_by_layer "
            + " ".join(
                f"{layer}={seconds * 1000 / count:.4f}"
                for layer, seconds in sorted(recorder.self_times(by_layer=True).items())
            ),
        ],
        "failures": failures + traced.errors + plain.errors,
        "attempted": first.attempted,
        "failed": failed + traced.failed + plain.failed,
    }
