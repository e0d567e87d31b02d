"""Headless benchmark runner: machine-readable engine perf trajectory.

Runs the ``bench_engines`` / ``bench_recursive`` / ``bench_retrieve``
scenario shapes without pytest and writes ``BENCH_engine.json`` —
scenario -> median wall-time, fact/row counts, executor used — so perf can
be tracked across PRs.  Every bottom-up scenario runs under both executors
(the interned-id ``kernel`` loops and the ``nested`` tuple-at-a-time
reference), and the paired speedup ratio (``kernel_vs_nested``) is
reported alongside.

The ``guard_overhead`` and ``tracer_overhead`` sections time the kernel
executor with the resource guard armed (and with the do-nothing / the
collecting tracer) against the same run ungoverned and untraced.  Each
figure is the median of per-pair on/off ratios over ``OVERHEAD_PAIRS``
interleaved pairs, so drift on a shared machine hits both sides of a pair
alike instead of one side's median.

The ``cache`` section measures the materialized view cache: warm/cold
repeated-query scenarios (hit rate and warm-vs-cold speedup through the
session memo) and mutate-then-requery scenarios (incremental refresh of a
single-fact delta vs a cold recompute).  The ``plan_cache`` section pairs
sessions with the compiled-plan cache on vs off over a point lookup with
EDB churn between queries — the regime where the statement memo misses
but compiled plans stay warm.

The ``server`` section drives a real loopback query server (the ``dbk
serve`` wiring) with concurrent clients: a read-only phase and a
readers-under-writes phase over the same mixed retrieve/describe traffic,
reporting p50/p99 latency and throughput for each plus the p50 ratio
between them — the number ``check_regression.py`` gates at <= 1.3x
(MVCC snapshot reads must keep readers off the writer's path).

Besides overwriting the current snapshot, every run appends a timestamped
entry to ``BENCH_history.json`` so the perf trajectory survives across PRs.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # default tier
    PYTHONPATH=src python benchmarks/run_benchmarks.py --tier smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.engine import retrieve
from repro.engine.guard import ResourceGuard
from repro.engine.plan import EXECUTORS
from repro.engine.seminaive import SemiNaiveEngine
from repro.obs import NULL_TRACER, Tracer
from repro.session import Session
from repro.datasets import (
    chain_graph_kb,
    component_graph_kb,
    random_graph_kb,
    scaled_university_kb,
    university_kb,
)
from repro.lang.parser import parse_atom, parse_body

#: Interleaved on/off pairs behind each guard/tracer overhead ratio.
OVERHEAD_PAIRS = 51

#: Workload sizes per tier: smoke keeps CI fast, default is the tracked tier,
#: large has >= 50k derived facts per recursive scenario.  The large tier
#: skips the ``nested`` reference executor — tuple-at-a-time evaluation at
#: these sizes takes minutes and measures nothing the default tier doesn't
#: already cover.
TIERS = {
    "smoke": {
        "chain_length": 30,
        "components": 5,
        "component_size": 6,
        "graph_nodes": 20,
        "graph_edges": 40,
        "students": 100,
        "repeats": 3,
    },
    "default": {
        "chain_length": 120,
        "components": 20,
        "component_size": 10,
        "graph_nodes": 60,
        "graph_edges": 120,
        "students": 400,
        "repeats": 5,
    },
    "large": {
        "chain_length": 400,
        "components": 40,
        "component_size": 40,
        "graph_nodes": 500,
        "graph_edges": 1000,
        "students": 400,
        "repeats": 3,
    },
}


def _materialise(make_kb, predicate, guard=None, tracer=None):
    """A runner timing one full bottom-up materialisation.

    ``guard`` and ``tracer`` are factories (a fresh ResourceGuard / Tracer
    per run) so repeats never share consumed budget or span trees.
    """

    def run(executor):
        kb = make_kb()
        active = guard() if guard is not None else None
        observing = tracer() if tracer is not None else None
        start = time.perf_counter()
        relation = SemiNaiveEngine(
            kb, executor=executor, guard=active, tracer=observing
        ).derived_relation(predicate)
        return time.perf_counter() - start, len(relation)

    return run


def _retrieve(make_kb, subject, qualifier=()):
    """A runner timing one retrieve query (engine built per call)."""

    def run(executor):
        kb = make_kb()
        start = time.perf_counter()
        result = retrieve(kb, subject, qualifier, executor=executor)
        return time.perf_counter() - start, len(result)

    return run


def scenarios(sizes):
    """Name -> runner; each runner takes an executor and returns (s, count)."""
    return {
        "recursive/chain": _materialise(
            lambda: chain_graph_kb(sizes["chain_length"]), "path"
        ),
        "recursive/component": _materialise(
            lambda: component_graph_kb(
                components=sizes["components"], size=sizes["component_size"], seed=3
            ),
            "path",
        ),
        "recursive/random_graph": _materialise(
            lambda: random_graph_kb(
                nodes=sizes["graph_nodes"], edges=sizes["graph_edges"], seed=13
            ),
            "path",
        ),
        "engines/full_scan": _retrieve(
            lambda: random_graph_kb(
                nodes=sizes["graph_nodes"], edges=sizes["graph_edges"], seed=13
            ),
            parse_atom("path(X, Y)"),
        ),
        "engines/point_lookup": _retrieve(
            lambda: scaled_university_kb(sizes["students"], seed=11),
            parse_atom("can_ta(bob, databases)"),
        ),
        "retrieve/e1": _retrieve(
            lambda: university_kb(),
            parse_atom("honor(X)"),
            parse_body("enroll(X, databases)"),
        ),
        "retrieve/e2": _retrieve(
            lambda: university_kb(),
            parse_atom("answer(X)"),
            parse_body(
                "can_ta(X, databases) and student(X, math, V) and (V > 3.7)"
            ),
        ),
    }


def overhead_metrics(sizes) -> dict:
    """Guard and tracer overhead on the kernel executor, pair by pair.

    Every round materializes the chain closure once plain and once per
    variant — the guard armed with generous limits (pure checkpoint
    cost), the shared do-nothing tracer (``null``: the disabled path) and
    the collecting tracer (``on``) — in an order that rotates each round.
    A variant's overhead is the median over rounds of its time divided by
    the same round's plain time.
    """

    def chain():
        return chain_graph_kb(sizes["chain_length"])

    runners = {
        "off": _materialise(chain, "path"),
        "guard": _materialise(
            chain,
            "path",
            guard=lambda: ResourceGuard(deadline=600.0, max_facts=100_000_000),
        ),
        "null": _materialise(chain, "path", tracer=lambda: NULL_TRACER),
        "on": _materialise(chain, "path", tracer=Tracer),
    }
    names = list(runners)
    ratios: dict[str, list[float]] = {name: [] for name in names if name != "off"}
    runners["off"]("kernel")  # warm-up: interns the chain's constants
    for round_index in range(OVERHEAD_PAIRS):
        shift = round_index % len(names)
        times = {
            name: runners[name]("kernel")[0]
            for name in names[shift:] + names[:shift]
        }
        for name, samples in ratios.items():
            samples.append(times[name] / times["off"])
    medians = {
        name: round(statistics.median(samples), 3) for name, samples in ratios.items()
    }
    return {
        "guard_overhead": {"kernel": medians["guard"]},
        "tracer_overhead": {"kernel": {"null": medians["null"], "on": medians["on"]}},
    }


def _cache_workloads(sizes):
    """Name -> (kb factory, query, EDB predicate to mutate)."""
    return {
        "chain": (
            lambda: chain_graph_kb(sizes["chain_length"]),
            "retrieve path(X, Y)",
            "edge",
        ),
        "university": (
            lambda: scaled_university_kb(sizes["students"], seed=11),
            "retrieve honor(X)",
            "student",
        ),
    }


def cache_metrics(sizes, repeats: int) -> dict:
    """Warm/cold and mutate-then-requery measurements of the view cache.

    ``warm_repeat/*`` runs one cold query then warm repeats through a
    cached session: the warm path is a fingerprint probe, so the speedup is
    the serving win on an unchanged knowledge base.  ``mutate_requery/*``
    deletes and re-inserts a single stored fact between queries: the cached
    session repairs its views through delta propagation / DRed, the
    uncached session recomputes the fixpoint cold.
    """
    rounds = max(repeats, 3)
    results: dict[str, dict] = {}
    for name, (make_kb, query, victim) in _cache_workloads(sizes).items():
        session = Session(make_kb())
        start = time.perf_counter()
        session.query(query)
        cold_s = time.perf_counter() - start
        warm = []
        for _ in range(rounds):
            start = time.perf_counter()
            session.query(query)
            warm.append(time.perf_counter() - start)
        warm_s = statistics.median(warm)
        stats = session.cache_stats()
        results[f"warm_repeat/{name}"] = {
            "cold_s": round(cold_s, 6),
            "warm_median_s": round(warm_s, 6),
            "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
            "memo_hit_rate": round(
                stats["statement_hits"]
                / max(stats["statement_hits"] + stats["statement_misses"], 1),
                4,
            ),
        }

        # Mutate-then-requery: alternate deleting and re-inserting one fact
        # so every requery faces a fresh single-row EDB delta.
        cached = Session(make_kb())
        uncached = Session(cached.kb, cache=False)
        cached.query(query)
        row = cached.kb.relation(victim).rows()[0]
        incremental, recompute = [], []
        for times, session in ((incremental, cached), (recompute, uncached)):
            for index in range(rounds):
                relation = cached.kb.relation(victim)
                if index % 2 == 0:
                    relation.delete(row)
                else:
                    relation.insert(row)
                start = time.perf_counter()
                session.query(query)
                times.append(time.perf_counter() - start)
            if len(times) % 2:  # leave the fact present for the next phase
                cached.kb.relation(victim).insert(row)
        incremental_s = statistics.median(incremental)
        recompute_s = statistics.median(recompute)
        results[f"mutate_requery/{name}"] = {
            "incremental_median_s": round(incremental_s, 6),
            "recompute_median_s": round(recompute_s, 6),
            "speedup": (
                round(recompute_s / incremental_s, 2) if incremental_s > 0 else None
            ),
            "incremental_refreshes": cached.cache_stats()["incremental_refreshes"],
        }
    return results


def plan_cache_metrics(sizes, repeats: int) -> dict:
    """The compiled-plan cache's win: repeat point lookups with EDB churn.

    Each round inserts a fresh fact before re-issuing the same query, so
    the statement memo (keyed on relation versions) misses every time.
    With the plan cache on, only compilation is skipped — the measured
    pair isolates exactly the cost the cache removes.
    """
    rounds = max(repeats, 5)
    results: dict[str, dict] = {}
    for executor in ("kernel",):
        timings: dict[bool, float] = {}
        stats: dict[str, int] = {}
        for enabled in (True, False):
            session = Session(
                scaled_university_kb(sizes["students"], seed=11),
                executor=executor,
                plan_cache=enabled,
            )
            query = "retrieve can_ta(bob, databases)"
            session.query(query)  # compile once outside the timed loop
            times = []
            for index in range(rounds):
                session.kb.add_fact("student", f"synth{index}", "math", 3.0)
                start = time.perf_counter()
                session.query(query)
                times.append(time.perf_counter() - start)
            timings[enabled] = statistics.median(times)
            if enabled:
                stats = {
                    "plan_hits": session.plan_cache.hits,
                    "plan_misses": session.plan_cache.misses,
                }
        results[f"point_requery[{executor}]"] = {
            "cached_median_s": round(timings[True], 6),
            "uncached_median_s": round(timings[False], 6),
            "speedup": (
                round(timings[False] / timings[True], 2) if timings[True] > 0 else None
            ),
            **stats,
        }
    return results


def analysis_metrics(sizes, repeats: int) -> dict:
    """The abstract-interpretation summary's cost: cold run vs cached hit.

    ``summarize`` times the three fixpoint domains end to end (cache
    cleared every round); ``cached_lookup`` times ``summary_for`` on an
    unchanged knowledge base (fingerprint check + dictionary hit).  The
    ``overhead`` pair re-issues the same point lookup with the planner
    consuming the cached summary vs ``REPRO_PLAN_ANALYSIS`` off — the
    cached-hit tax on a whole query, gated at <= 1.02x in
    ``check_regression.py``.  The two variants are timed as *interleaved
    pairs* (alternating order, median of per-pair ratios): sequential
    blocks drift apart when the process has been warmed unevenly by
    earlier benchmark sections, and a paired ratio cancels that.
    """
    from repro.analysis.absint import summary as absint

    kb = scaled_university_kb(sizes["students"], seed=11)
    rounds = max(repeats, 5)

    cold = []
    for _ in range(rounds):
        absint.reset_cache()
        start = time.perf_counter()
        absint.summary_for(kb)
        cold.append(time.perf_counter() - start)
    cached = []
    for _ in range(rounds):
        start = time.perf_counter()
        absint.summary_for(kb)
        cached.append(time.perf_counter() - start)
    info = absint.cache_info()

    subject = parse_atom("can_ta(bob, databases)")
    for enabled in (True, False):  # summary cached / plans warm outside timing
        with absint.planning_override(enabled):
            retrieve(kb, subject)
    samples: dict[bool, list[float]] = {True: [], False: []}
    ratios: list[float] = []
    for round_no in range(rounds * 3):
        order = (True, False) if round_no % 2 == 0 else (False, True)
        pair: dict[bool, float] = {}
        for enabled in order:
            with absint.planning_override(enabled):
                start = time.perf_counter()
                retrieve(kb, subject)
                pair[enabled] = time.perf_counter() - start
        samples[True].append(pair[True])
        samples[False].append(pair[False])
        if pair[False] > 0:
            ratios.append(pair[True] / pair[False])

    return {
        "summarize": {"median_s": round(statistics.median(cold), 6)},
        "cached_lookup": {
            "median_s": round(statistics.median(cached), 6),
            "hits": info["hits"],
            "misses": info["misses"],
        },
        "overhead": {
            "informed_median_s": round(statistics.median(samples[True]), 6),
            "syntactic_median_s": round(statistics.median(samples[False]), 6),
            "ratio": round(statistics.median(ratios), 3) if ratios else None,
        },
    }


def durability_metrics(sizes, repeats: int) -> dict:
    """The write-ahead log's cost and recovery's speed.

    ``wal_overhead`` pairs the same bulk mutation (one transaction
    inserting every fact, so the whole batch is one log record and one
    fsync) against a plain in-memory knowledge base over
    ``OVERHEAD_PAIRS`` interleaved rounds whose order alternates: the
    ratio is the median of the per-round durable/plain ratios — the
    durability tax on the mutation path, gated at <= 1.25x.
    ``replay`` rebuilds a directory whose state lives mostly in the log
    (many commits, no covering snapshot) and measures staged recovery:
    log-replay throughput in rows/sec and the cold-recover wall latency.
    """
    import shutil
    import tempfile

    from repro.catalog import KnowledgeBase, Recoverer
    from repro.catalog.wal import open_durable

    rows = sizes["students"] * 10
    rounds = max(repeats, 3)
    facts = [(f"p{i}", i % 97) for i in range(rows)]

    def timed_insert(kb) -> float:
        kb.declare_edb("event", 2)
        start = time.perf_counter()
        with kb.transaction():
            kb.add_facts("event", facts)
        return time.perf_counter() - start

    scratch = tempfile.mkdtemp(prefix="dbk-bench-")

    def durable_insert(index: int) -> float:
        kb = open_durable(f"{scratch}/wal-{index}")
        elapsed = timed_insert(kb)
        kb.durability.log.close()
        return elapsed

    try:
        timed_insert(KnowledgeBase("warm-up"))  # interns the facts' constants
        plain_times: list[float] = []
        durable_times: list[float] = []
        ratios: list[float] = []
        for index in range(OVERHEAD_PAIRS):
            if index % 2:
                durable_s = durable_insert(index)
                plain_s = timed_insert(KnowledgeBase("plain"))
            else:
                plain_s = timed_insert(KnowledgeBase("plain"))
                durable_s = durable_insert(index)
            plain_times.append(plain_s)
            durable_times.append(durable_s)
            ratios.append(durable_s / plain_s)

        # A log-heavy directory: committed batches, no covering snapshot.
        replay_dir = f"{scratch}/replay"
        kb = open_durable(replay_dir, snapshot_every=None)
        kb.declare_edb("event", 2)
        batch = max(len(facts) // 50, 1)
        for start_row in range(0, len(facts), batch):
            with kb.transaction():
                kb.add_facts("event", facts[start_row:start_row + batch])
        kb.durability.log.close()
        recover_times = []
        replayed = 0
        for _ in range(rounds):
            start = time.perf_counter()
            report = Recoverer(replay_dir).recover()
            recover_times.append(time.perf_counter() - start)
            replayed = report.events_applied
        recover_s = statistics.median(recover_times)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "wal_overhead": {
            "plain_median_s": round(statistics.median(plain_times), 6),
            "durable_median_s": round(statistics.median(durable_times), 6),
            "ratio": round(statistics.median(ratios), 3),
            "rows": rows,
        },
        "replay": {
            "cold_recover_median_s": round(recover_s, 6),
            "rows_replayed": replayed,
            "rows_per_s": (
                round(replayed / recover_s, 1) if recover_s > 0 else None
            ),
        },
    }


#: The statements each benchmark client cycles through: row retrieval,
#: intensional description, and a point lookup — the served read mix.
SERVER_STATEMENTS = (
    "retrieve honor(X)",
    "describe honor(X)",
    "retrieve can_ta(bob, databases)",
)


def _percentile(samples: list, fraction: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def server_metrics(sizes, repeats: int) -> dict:
    """Concurrent-traffic latency through the HTTP server, with and
    without a live writer.

    Both phases run the same mixed read traffic (three keep-alive clients
    cycling :data:`SERVER_STATEMENTS`); the second adds a writer
    committing definition batches at a steady cadence, so every commit
    publishes a snapshot and invalidates the pooled readers' warm
    sessions.  The tracked number is the ratio of the two p50s: snapshot
    isolation promises readers never wait on the writer, so the mixed p50
    should sit near the read-only p50 (the occasional cold re-evaluation
    right after a publication lands in the p99, not the median).
    """
    import threading

    from repro.server import MultiVersionCatalog, ServerClient, serve_in_thread

    clients = 3
    per_client = 30 * max(repeats, 3)
    commits = max(repeats, 3)
    catalog = MultiVersionCatalog(scaled_university_kb(sizes["students"], seed=11))
    handle = serve_in_thread(catalog, pool_size=clients, trace=False)
    try:

        def read_phase() -> tuple[list, float]:
            latencies: list[list] = [[] for _ in range(clients)]

            def worker(index: int) -> None:
                with ServerClient(
                    handle.host, handle.port, client=f"bench{index}"
                ) as connected:
                    for warmup in range(len(SERVER_STATEMENTS)):
                        connected.query(SERVER_STATEMENTS[warmup])
                    for request in range(per_client):
                        statement = SERVER_STATEMENTS[
                            (index + request) % len(SERVER_STATEMENTS)
                        ]
                        start = time.perf_counter()
                        connected.query(statement)
                        latencies[index].append(time.perf_counter() - start)

            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(clients)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            return [sample for per in latencies for sample in per], elapsed

        read_lat, read_elapsed = read_phase()

        def writer() -> None:
            # Commits spread across (an estimate of) the read phase, so
            # publications interleave with, not bracket, the traffic.
            interval = read_elapsed / (commits + 1)
            with ServerClient(handle.host, handle.port, client="writer") as w:
                for index in range(commits):
                    time.sleep(interval)
                    w.commit(f"bench_epoch{index}(tick).")

        writing = threading.Thread(target=writer)
        writing.start()
        mixed_lat, mixed_elapsed = read_phase()
        writing.join()
    finally:
        handle.stop()

    def phase(samples: list, elapsed: float) -> dict:
        return {
            "p50_ms": round(_percentile(samples, 0.50) * 1000, 3),
            "p99_ms": round(_percentile(samples, 0.99) * 1000, 3),
            "throughput_rps": round(len(samples) / elapsed, 1) if elapsed else None,
            "requests": len(samples),
        }

    read_only = phase(read_lat, read_elapsed)
    mixed = phase(mixed_lat, mixed_elapsed)
    mixed["commits"] = commits
    mixed["snapshots_published"] = catalog.current.snapshot_id
    return {
        "workload": {
            "clients": clients,
            "requests_per_client": per_client,
            "statements": list(SERVER_STATEMENTS),
        },
        "read_only": read_only,
        "readers_under_writes": mixed,
        "mixed_over_read_p50": (
            round(mixed["p50_ms"] / read_only["p50_ms"], 3)
            if read_only["p50_ms"]
            else None
        ),
    }


def run_tier(tier: str, repeats: int | None = None) -> dict:
    sizes = TIERS[tier]
    repeats = repeats or sizes["repeats"]
    executors = [e for e in EXECUTORS if not (tier == "large" and e == "nested")]
    results: dict[str, dict] = {}
    speedups: dict[str, dict[str, float]] = {}
    for name, runner in scenarios(sizes).items():
        medians: dict[str, float] = {}
        for executor in executors:
            times = []
            count = 0
            for _ in range(repeats):
                elapsed, count = runner(executor)
                times.append(elapsed)
            medians[executor] = statistics.median(times)
            results[f"{name}[{executor}]"] = {
                "median_s": round(medians[executor], 6),
                "facts": count,
                "executor": executor,
            }
        if "nested" in medians and medians["kernel"] > 0:
            speedups[name] = {
                "kernel_vs_nested": round(medians["nested"] / medians["kernel"], 2)
            }
    return {
        "meta": {
            "tier": tier,
            "repeats": repeats,
            "unit": "seconds (median wall-time)",
            "executors": executors,
            "overhead_pairs": OVERHEAD_PAIRS,
        },
        "scenarios": results,
        "speedups": speedups,
        **overhead_metrics(sizes),
        "cache": cache_metrics(sizes, repeats),
        "plan_cache": plan_cache_metrics(sizes, repeats),
        "analysis": analysis_metrics(sizes, repeats),
        "durability": durability_metrics(sizes, repeats),
        "server": server_metrics(sizes, repeats),
    }


def append_history(report: dict, path: Path) -> None:
    """Append a timestamped summary entry to the trajectory file.

    The snapshot file is overwritten every run; the history keeps the
    derived metrics (speedups, guard overhead, cache behaviour) so the
    perf trajectory across PRs is not lost.
    """
    try:
        history = json.loads(path.read_text())
        if not isinstance(history, list):
            history = []
    except (OSError, ValueError):
        history = []
    history.append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "tier": report["meta"]["tier"],
            "speedups": report["speedups"],
            "guard_overhead": report["guard_overhead"],
            "tracer_overhead": report["tracer_overhead"],
            "cache": report["cache"],
            "plan_cache": report["plan_cache"],
            "analysis": report["analysis"],
            "durability": report["durability"],
            "server": report["server"],
        }
    )
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tier", choices=sorted(TIERS), default="default")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_history.json",
    )
    parser.add_argument(
        "--no-history", action="store_true",
        help="skip appending to the trajectory file",
    )
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")

    report = run_tier(args.tier, args.repeats)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if not args.no_history:
        append_history(report, args.history)

    for name, entry in sorted(report["scenarios"].items()):
        print(f"{name:40s} {entry['median_s']:.4f}s  ({entry['facts']} facts)")
    print()
    for name, ratios in sorted(report["speedups"].items()):
        print(f"{name:40s} kernel {ratios['kernel_vs_nested']:.2f}x nested")
    for executor, factor in sorted(report["guard_overhead"].items()):
        label = f"guard overhead [{executor}]"
        print(f"{label:40s} {factor:.3f}x ungoverned")
    for executor, factors in sorted(report["tracer_overhead"].items()):
        label = f"tracer overhead [{executor}]"
        print(
            f"{label:40s} null {factors['null']:.3f}x / "
            f"collecting {factors['on']:.3f}x untraced"
        )
    print()
    for name, entry in sorted(report["cache"].items()):
        speedup = entry.get("speedup")
        label = "warm/cold" if name.startswith("warm_repeat") else "incr/recompute"
        print(f"cache {name:34s} {label} speedup {speedup}x")
    for name, entry in sorted(report["plan_cache"].items()):
        print(f"plan_cache {name:29s} cached/uncached speedup {entry['speedup']}x")
    wal = report["durability"]["wal_overhead"]
    replay = report["durability"]["replay"]
    print(
        f"{'durability wal_overhead':40s} {wal['ratio']}x plain "
        f"({wal['rows']} rows, one commit)"
    )
    print(
        f"{'durability replay':40s} {replay['rows_per_s']} rows/s, "
        f"cold recover {replay['cold_recover_median_s']:.4f}s"
    )
    server = report["server"]
    print(
        f"{'server read_only':40s} p50 {server['read_only']['p50_ms']}ms / "
        f"p99 {server['read_only']['p99_ms']}ms, "
        f"{server['read_only']['throughput_rps']} req/s"
    )
    under_writes = server["readers_under_writes"]
    print(
        f"{'server readers_under_writes':40s} p50 {under_writes['p50_ms']}ms / "
        f"p99 {under_writes['p99_ms']}ms, "
        f"{under_writes['throughput_rps']} req/s "
        f"({under_writes['commits']} commits)"
    )
    print(
        f"{'server mixed/read p50':40s} {server['mixed_over_read_p50']}x"
    )
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
