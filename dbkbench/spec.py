"""The benchmark's metric and workload catalogue: one source of truth.

``BENCHMARK.json`` at the repository root is generated from (and tested
against) this module.  Its schema has no room for the prediction attached
to every per-layer metric, so that prediction lives here, in ``MOVES``,
and in ``dbkbench/README.md``.

Gated end-to-end metrics apply to every workload, so every untraced run
prints each of them and none of them is ever zero.  Metrics that apply to
only some workloads (write latency, sustained rate, durability figures,
failure share) are printed by name on the untraced run's report lines and
are listed with the per-layer metrics so the traced run records them too;
on a workload they do not apply to they read 0.
"""

from __future__ import annotations

#: name -> why it was chosen, which layers it loads and which it bypasses
#: (one line of at most 200 characters each, as BENCHMARK.json requires).
WORKLOADS = {
    "retrieve_cold": (
        "closed-loop uncached recursive closures and university joins: loads "
        "engine.seminaive and engine.evaluate; bypasses core, catalog writes, "
        "viewcache, incremental and server"
    ),
    "knowledge_cold": (
        "closed-loop uncached describe/compare over the paper's KBs and rule "
        "trees, unions and chains: loads lang and core (Algorithm 2, "
        "transform); bypasses the fixpoint"
    ),
    "mutate_requery": (
        "closed-loop durable one-fact insert/delete then cached requery: loads "
        "catalog, catalog.wal, engine.viewcache and engine.incremental; "
        "bypasses core and server"
    ),
    "served_mixed": (
        "server request path back to back in-process (traced run: dbk serve at "
        "fixed Poisson rates); 94% Zipf-keyed reads, 6% one-fact commits: loads "
        "server, memo, catalog.snapshot; bypasses catalog.wal"
    ),
}

#: Gated end-to-end metrics: (name, unit, better, bound).  ``bound`` is the
#: share of the parent's median by which the metric may worsen.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("read_p50_ms", "ms", "lower", 0.25),
    ("read_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: Workload-specific end-to-end metrics: (name, unit, better, workloads).
WORKLOAD_SPECIFIC = [
    ("write_p50_ms", "ms", "lower", ("mutate_requery", "served_mixed")),
    ("write_p95_ms", "ms", "lower", ("mutate_requery", "served_mixed")),
    ("sustained_rps", "1/s", "higher", ("served_mixed",)),
    ("generator_late_p95_ms", "ms", "lower", ("served_mixed",)),
    ("failed_share", "share", "lower", tuple(WORKLOADS)),
    ("disk_bytes_per_write", "B", "lower", ("mutate_requery",)),
    ("recover_s", "s", "lower", ("mutate_requery",)),
]

#: Per-layer metrics from the traced run: (name, unit, better).
LAYER = [
    ("lang.parse_ms", "ms", "lower"),
    ("analysis.summary_ms", "ms", "lower"),
    ("analysis.summary_miss_ratio", "ratio", "lower"),
    ("engine.plan_compile_ms", "ms", "lower"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher"),
    ("engine.fixpoint_ms", "ms", "lower"),
    ("engine.fixpoint_iterations", "count", "lower"),
    ("engine.facts_derived", "count", "lower"),
    ("engine.join_probes", "count", "lower"),
    ("engine.derived_per_answer", "ratio", "lower"),
    ("engine.materialize_ms", "ms", "lower"),
    ("engine.answer_rows", "count", "higher"),
    ("viewcache.hit_ratio", "ratio", "higher"),
    ("viewcache.incremental_refreshes", "count", "higher"),
    ("viewcache.full_refreshes", "count", "lower"),
    ("viewcache.evictions", "count", "lower"),
    ("session.memo_hit_ratio", "ratio", "higher"),
    ("incremental.repair_insert_ms", "ms", "lower"),
    ("incremental.repair_delete_ms", "ms", "lower"),
    ("core.describe_ms", "ms", "lower"),
    ("core.transform_ms", "ms", "lower"),
    ("core.nodes_expanded", "count", "lower"),
    ("core.nodes_cut", "count", "higher"),
    ("core.search_steps", "count", "lower"),
    ("core.answers_per_node", "ratio", "higher"),
    ("catalog.mutate_ms", "ms", "lower"),
    ("catalog.wal_append_ms", "ms", "lower"),
    ("catalog.wal_fsyncs", "count", "lower"),
    ("catalog.wal_bytes_per_write", "B", "lower"),
    ("catalog.snapshot_publish_ms", "ms", "lower"),
    ("server.queue_wait_ms", "ms", "lower"),
    ("server.pool_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.overhead_ms", "ms", "lower"),
    ("server.session_builds_per_commit", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.timed_out", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.base_ms_per_op", "ms", "lower"),
    ("trace.unattributed_share", "share", "lower"),
]

#: Per-layer metric -> (end-to-end metric, workloads it should move).
#: Workloads not named are predicted to show no change.
MOVES = {
    "lang.parse_ms": ("read_p50_ms", ("knowledge_cold", "served_mixed")),
    "analysis.summary_ms": ("read_p50_ms", ("mutate_requery",)),
    "analysis.summary_miss_ratio": ("read_p50_ms", ("mutate_requery",)),
    "engine.plan_compile_ms": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "engine.plan_cache_hit_ratio": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "engine.fixpoint_ms": ("throughput_ops_s", ("retrieve_cold",)),
    "engine.fixpoint_iterations": ("throughput_ops_s", ("retrieve_cold",)),
    "engine.facts_derived": ("throughput_ops_s", ("retrieve_cold",)),
    "engine.join_probes": ("read_p95_ms", ("retrieve_cold",)),
    "engine.derived_per_answer": ("throughput_ops_s", ("retrieve_cold",)),
    "engine.materialize_ms": ("read_p95_ms", ("retrieve_cold",)),
    "engine.answer_rows": ("read_p95_ms", ("retrieve_cold",)),
    "viewcache.hit_ratio": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "viewcache.incremental_refreshes": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "viewcache.full_refreshes": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "viewcache.evictions": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "session.memo_hit_ratio": ("read_p50_ms", ("mutate_requery", "served_mixed")),
    "incremental.repair_insert_ms": ("read_p50_ms", ("mutate_requery",)),
    "incremental.repair_delete_ms": ("read_p95_ms", ("mutate_requery",)),
    "core.describe_ms": ("read_p50_ms", ("knowledge_cold",)),
    "core.transform_ms": ("read_p50_ms", ("knowledge_cold",)),
    "core.nodes_expanded": ("read_p95_ms", ("knowledge_cold",)),
    "core.nodes_cut": ("read_p95_ms", ("knowledge_cold",)),
    "core.search_steps": ("read_p95_ms", ("knowledge_cold",)),
    "core.answers_per_node": ("read_p95_ms", ("knowledge_cold",)),
    "catalog.mutate_ms": ("write_p50_ms", ("mutate_requery",)),
    "catalog.wal_append_ms": ("write_p50_ms", ("mutate_requery",)),
    "catalog.wal_fsyncs": ("write_p50_ms", ("mutate_requery",)),
    "catalog.wal_bytes_per_write": ("disk_bytes_per_write", ("mutate_requery",)),
    "catalog.snapshot_publish_ms": ("write_p50_ms", ("served_mixed",)),
    "server.queue_wait_ms": ("sustained_rps", ("served_mixed",)),
    "server.pool_ms": ("read_p50_ms", ("served_mixed",)),
    "server.encode_ms": ("read_p50_ms", ("served_mixed",)),
    "server.overhead_ms": ("sustained_rps", ("served_mixed",)),
    "server.session_builds_per_commit": ("sustained_rps", ("served_mixed",)),
    "server.rejected": ("failed_share", ("served_mixed",)),
    "server.timed_out": ("failed_share", ("served_mixed",)),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue defines."""
    return {
        "command": ["python3", "dbkbench/run.py"],
        "paths": ["dbkbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in traced_metrics()
        ],
    }


def traced_metrics() -> list[tuple[str, str, str]]:
    """Every metric a ``--trace 1`` run prints, in order."""
    specific = [(name, unit, better) for name, unit, better, _ in WORKLOAD_SPECIFIC]
    return specific + LAYER


#: Seconds one run measures (BENCHMARK.json ``run_seconds``).
RUN_SECONDS = 12
