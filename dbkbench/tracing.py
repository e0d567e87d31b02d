"""Spans recorded from outside the program, around calls into each layer.

:func:`install` rebinds the public functions and methods of every layer
in the namespaces their callers actually look them up in, so each call
records one span: name, layer, start, end, parent and operation id.
Spans stay in memory (:class:`Recorder`) and are written out when the run
ends.  A layer's self time is its spans' durations minus the time their
child spans cover.

Nothing here is imported by the program; uninstalling restores every
original binding.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time

#: (module, attribute path, span name, layer).  Functions are wrapped in
#: the module whose namespace the caller reads them from; methods on their
#: class.  Generators (``kernels.substitutions_from_kernel_batch``) are not
#: wrapped: their work interleaves with the caller's, so it is attributed
#: to the enclosing ``retrieve`` span, which is answer materialization.
TARGETS = [
    ("repro.session", "Session.execute", "Session.execute", "session"),
    ("repro.session", "parse_statement", "parse_statement", "lang"),
    ("repro.analysis.absint.summary", "summary_for", "summary_for", "analysis"),
    ("repro.engine.evaluate", "compile_conjunction", "compile_conjunction", "engine.plan"),
    ("repro.engine.kernels", "compile_conjunction_kernel", "compile_conjunction_kernel", "engine.plan"),
    ("repro.engine.kernels", "compile_rule_kernel", "compile_rule_kernel", "engine.plan"),
    ("repro.engine.seminaive", "compile_rule", "compile_rule", "engine.plan"),
    ("repro.engine.seminaive", "SemiNaiveEngine.evaluate", "SemiNaiveEngine.evaluate", "engine.seminaive"),
    ("repro.session", "retrieve", "retrieve", "engine.evaluate"),
    ("repro.engine.viewcache", "ViewCache.evaluate", "ViewCache.evaluate", "engine.viewcache"),
    ("repro.engine.viewcache", "ViewCache.lookup_statement", "ViewCache.lookup_statement", "engine.viewcache"),
    ("repro.engine.viewcache", "ViewCache.store_statement", "ViewCache.store_statement", "engine.viewcache"),
    ("repro.engine.incremental", "MaterializedDatabase.for_views", "MaterializedDatabase.for_views", "engine.incremental"),
    ("repro.engine.incremental", "MaterializedDatabase.apply_edb_delta", "MaterializedDatabase.apply_edb_delta", "engine.incremental"),
    ("repro.session", "describe", "describe", "core"),
    ("repro.session", "describe_necessary", "describe_necessary", "core"),
    ("repro.session", "describe_without", "describe_without", "core"),
    ("repro.session", "is_possible", "is_possible", "core"),
    ("repro.session", "describe_wildcard", "describe_wildcard", "core"),
    ("repro.session", "compare_concepts", "compare_concepts", "core"),
    ("repro.core.disjunction", "describe_disjunctive", "describe_disjunctive", "core"),
    ("repro.core.algorithm2", "transform_knowledge_base", "transform_knowledge_base", "core.transform"),
    ("repro.core.compare", "transform_knowledge_base", "transform_knowledge_base", "core.transform"),
    ("repro.core.necessity", "transform_knowledge_base", "transform_knowledge_base", "core.transform"),
    ("repro.catalog.database", "KnowledgeBase.add_fact", "KnowledgeBase.add_fact", "catalog"),
    ("repro.catalog.relation", "Relation.delete", "Relation.delete", "catalog"),
    ("repro.catalog.transaction", "KBTransaction.commit", "KBTransaction.commit", "catalog"),
    ("repro.catalog.wal", "Durability.commit", "Durability.commit", "catalog"),
    ("repro.catalog.wal", "DurableLog.append", "DurableLog.append", "catalog.wal"),
    ("repro.catalog.wal", "DurableLog.snapshot", "DurableLog.snapshot", "catalog.wal"),
    ("repro.server.catalog", "publish_snapshot", "publish_snapshot", "catalog.snapshot"),
    ("repro.server.pool", "SessionPool.query", "SessionPool.query", "server"),
    ("repro.server.pool", "SessionPool.query_sync", "SessionPool.query_sync", "server.pool"),
    ("repro.server.http", "result_payload", "result_payload", "server.encode"),
    ("repro.server.http", "KnowledgeServer._dispatch", "KnowledgeServer._dispatch", "server"),
    ("repro.server.http", "KnowledgeServer._write_response", "KnowledgeServer._write_response", "server"),
]

#: Attribute key that carries the operation id and parent span from the
#: event loop into a pool worker thread (``run_in_executor`` does not
#: propagate context variables).
_HANDOFF = "_dbkbench_handoff"

_stack: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "dbkbench_stack", default=()
)
_op: contextvars.ContextVar[int] = contextvars.ContextVar("dbkbench_op", default=-1)


class Recorder:
    """Spans of one traced run, kept in memory.

    Each span is a list ``[name, layer, start, end, parent, op]``; times
    are ``time.perf_counter()`` seconds, ``parent`` is an index into
    :attr:`spans` (or -1).  Appending to a list is atomic under the
    interpreter lock, so worker threads record without a lock.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(time, counter, value)`` increments, timed so they window like spans.
        self.events: list[tuple[float, str, float]] = []
        #: ``(first, last)``: aggregate only spans and counts from this window.
        self.window: tuple[float, float] | None = None
        self._next_op = 0

    # -- operations ------------------------------------------------------------------

    def new_op(self) -> int:
        """Start a new operation on the calling thread or task."""
        self._next_op += 1
        _op.set(self._next_op)
        return self._next_op

    def count(self, name: str, value: float = 1) -> None:
        self.events.append((time.perf_counter(), name, value))

    @property
    def counts(self) -> dict[str, float]:
        """Counter totals over the window."""
        totals: dict[str, float] = {}
        for at, name, value in self.events:
            if self._in_window(at):
                totals[name] = totals.get(name, 0) + value
        return totals

    # -- spans -----------------------------------------------------------------------

    def open(self, name: str, layer: str, parent: int | None = None) -> tuple[int, object]:
        stack = _stack.get()
        if parent is None:
            parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None, parent, _op.get()])
        return index, _stack.set(stack + (index,))

    def close(self, index: int, token: object) -> None:
        self.spans[index][3] = time.perf_counter()
        _stack.reset(token)

    # -- aggregation -----------------------------------------------------------------

    def self_times(self, by_layer: bool = False) -> dict[str, float]:
        """Span name (or layer) -> summed self time in seconds.

        Self time is a span's duration minus the durations of its children;
        spans still open when the run ended are left out.
        """
        covered = [0.0] * len(self.spans)
        for name, layer, start, end, parent, op in self.spans:
            if end is not None and parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
            if end is not None and self._in_window(start):
                key = layer if by_layer else name
                totals[key] = totals.get(key, 0.0) + max(end - start - covered[index], 0.0)
        return totals

    def durations(self) -> dict[str, float]:
        """Span name -> summed wall duration in seconds."""
        totals: dict[str, float] = {}
        for name, layer, start, end, parent, op in self.spans:
            if end is not None and self._in_window(start):
                totals[name] = totals.get(name, 0.0) + end - start
        return totals

    def _in_window(self, start: float) -> bool:
        return self.window is None or self.window[0] <= start <= self.window[1]

    def dump(self, path: str) -> None:
        """Write the spans and counts as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "layer", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "events": self.events,
                },
                handle,
            )

    @classmethod
    def load(cls, path: str) -> "Recorder":
        recorder = cls()
        with open(path) as handle:
            data = json.load(handle)
        recorder.spans = data["spans"]
        recorder.events = [tuple(event) for event in data["events"]]
        return recorder


# -- wrappers ---------------------------------------------------------------------------


def _sync_wrapper(original, name: str, layer: str, recorder: Recorder):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index, token = recorder.open(name, layer)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.close(index, token)

    return wrapper


def _async_wrapper(original, name: str, layer: str, recorder: Recorder):
    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        index, token = recorder.open(name, layer)
        try:
            return await original(*args, **kwargs)
        finally:
            recorder.close(index, token)

    return wrapper


def _apply_edb_delta_wrapper(original, recorder: Recorder):
    """Repairs split by kind: a delta that removes rows runs DRed."""

    @functools.wraps(original)
    def wrapper(self, added, removed):
        kind = "delete" if any(removed.values()) else "insert"
        index, token = recorder.open(f"apply_edb_delta:{kind}", "engine.incremental")
        try:
            return original(self, added, removed)
        finally:
            recorder.close(index, token)

    return wrapper


def _wal_append_wrapper(original, recorder: Recorder):
    @functools.wraps(original)
    def wrapper(self, events, stamps):
        before = os.path.getsize(self.log_path) if os.path.exists(self.log_path) else 0
        index, token = recorder.open("DurableLog.append", "catalog.wal")
        try:
            return original(self, events, stamps)
        finally:
            recorder.close(index, token)
            recorder.count("wal_bytes", os.path.getsize(self.log_path) - before)
            recorder.count("wal_appends")

    return wrapper


def _dispatch_wrapper(original, recorder: Recorder):
    """One HTTP request is one operation of the served workload."""

    @functools.wraps(original)
    async def wrapper(self, request):
        recorder.new_op()
        index, token = recorder.open("KnowledgeServer._dispatch", "server")
        try:
            return await original(self, request)
        finally:
            recorder.close(index, token)

    return wrapper


def _pool_query_wrapper(original, recorder: Recorder):
    @functools.wraps(original)
    async def wrapper(self, snapshot, statement, guard=None, attributes=None):
        index, token = recorder.open("SessionPool.query", "server")
        handoff = dict(attributes or {})
        handoff[_HANDOFF] = (index, _op.get())
        try:
            return await original(self, snapshot, statement, guard, handoff)
        finally:
            recorder.close(index, token)

    return wrapper


def _query_sync_wrapper(original, recorder: Recorder):
    @functools.wraps(original)
    def wrapper(self, snapshot, statement, guard=None, attributes=None):
        attributes = dict(attributes or {})
        parent, op = attributes.pop(_HANDOFF, (None, -1))
        op_token = _op.set(op)
        index, token = recorder.open("SessionPool.query_sync", "server.pool", parent)
        try:
            return original(self, snapshot, statement, guard, attributes)
        finally:
            recorder.close(index, token)
            _op.reset(op_token)

    return wrapper


#: Counters the program's own tracer records (``Session(trace=True)``).
_TRACER_COUNTERS = (
    "facts_derived", "join_probes", "answer_rows",
    "nodes_expanded", "nodes_cut", "search_steps",
)
#: CacheStats field -> recorder count name.
_CACHE_COUNTERS = {
    "hits": "cache_hits",
    "misses": "cache_misses",
    "incremental_refreshes": "cache_incremental",
    "full_refreshes": "cache_full",
    "evictions": "cache_evictions",
    "statement_hits": "memo_hits",
    "statement_misses": "memo_misses",
}


def _execute_wrapper(original, recorder: Recorder):
    """A statement's span, plus the counters the session already keeps.

    Reads the session's tracer totals, its view-cache and plan-cache
    counters and the analysis-summary cache counters before and after the
    call, and adds the differences to the recorder.
    """
    from repro.analysis.absint.summary import cache_info

    @functools.wraps(original)
    def wrapper(self, statement, guard=None):
        cache = self.cache.stats if self.cache is not None else None
        plan = self.plan_cache
        before_cache = {field: getattr(cache, field) for field in _CACHE_COUNTERS} if cache else {}
        before_plan = (plan.hits, plan.misses) if plan is not None else (0, 0)
        before_summary = cache_info()
        # Inside a server request the statement's ``query`` span closes as
        # the last child of the still-open request span, not as a root.
        open_spans = getattr(self.tracer, "_stack", None)
        parent = open_spans[-1] if open_spans else None
        index, token = recorder.open("Session.execute", "session")
        result = None
        try:
            result = original(self, statement, guard)
            return result
        finally:
            recorder.close(index, token)
            for field, name in _CACHE_COUNTERS.items():
                if cache is not None:
                    recorder.count(name, getattr(cache, field) - before_cache[field])
            if plan is not None:
                recorder.count("plan_hits", plan.hits - before_plan[0])
                recorder.count("plan_misses", plan.misses - before_plan[1])
            after_summary = cache_info()
            recorder.count("summary_hits", after_summary["hits"] - before_summary["hits"])
            recorder.count("summary_misses", after_summary["misses"] - before_summary["misses"])
            if self.tracer is None:
                trace = None
            elif parent is not None:
                trace = parent.children[-1] if parent.children else None
            else:
                trace = self.tracer.last
            if trace is not None:
                totals = trace.totals()
                for name in _TRACER_COUNTERS:
                    recorder.count(name, totals.get(name, 0))
                recorder.count("iterations", len(trace.find("iteration")))
            answers = getattr(result, "answers", None)
            if answers is not None:
                recorder.count("answer_rules", len(answers))

    return wrapper


class _CountingJson:
    """The ``json`` module as the HTTP front end sees it, timing ``dumps``."""

    def __init__(self, module, recorder: Recorder) -> None:
        self._module = module
        self._recorder = recorder

    def dumps(self, *args, **kwargs):
        index, token = self._recorder.open("json.dumps", "server.encode")
        try:
            return self._module.dumps(*args, **kwargs)
        finally:
            self._recorder.close(index, token)

    def __getattr__(self, name):
        return getattr(self._module, name)


_SPECIAL = {
    "Session.execute": _execute_wrapper,
    "MaterializedDatabase.apply_edb_delta": _apply_edb_delta_wrapper,
    "DurableLog.append": _wal_append_wrapper,
    "KnowledgeServer._dispatch": _dispatch_wrapper,
    "SessionPool.query": _pool_query_wrapper,
    "SessionPool.query_sync": _query_sync_wrapper,
}


def install(recorder: Recorder, server: bool = False):
    """Wrap every target; returns a callable that restores the originals.

    ``server`` also wraps the HTTP front end's JSON encoder.
    """
    restore: list[tuple[object, str, object]] = []
    for module_name, path, name, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner: object = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attribute = parts[-1]
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        descriptor = type(original) if isinstance(original, classmethod) else None
        function = original.__func__ if descriptor is not None else original
        if name in _SPECIAL:
            wrapped = _SPECIAL[name](function, recorder)
        elif inspect.iscoroutinefunction(function):
            wrapped = _async_wrapper(function, name, layer, recorder)
        else:
            wrapped = _sync_wrapper(function, name, layer, recorder)
        if descriptor is not None:
            wrapped = descriptor(wrapped)
        setattr(owner, attribute, wrapped)
        restore.append((owner, attribute, original))
    original_fsync = os.fsync

    def counting_fsync(fd):
        recorder.count("fsyncs")
        return original_fsync(fd)

    os.fsync = counting_fsync
    restore.append((os, "fsync", original_fsync))
    if server:
        # Pool sessions run with the program's own tracer on, so their
        # engine and search counters reach the recorder.
        http = importlib.import_module("repro.server.http")
        pool = importlib.import_module("repro.server.pool")
        restore.append((http, "json", http.json))
        http.json = _CountingJson(http.json, recorder)
        session_class = pool.Session

        def traced_session(*args, **kwargs):
            kwargs["trace"] = True
            return session_class(*args, **kwargs)

        restore.append((pool, "Session", session_class))
        pool.Session = traced_session

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


# -- per-layer metrics ----------------------------------------------------------------------

#: Per-layer time metric -> the span names whose self time it sums.
_TIME_METRICS = {
    "lang.parse_ms": ("parse_statement",),
    "analysis.summary_ms": ("summary_for",),
    "engine.plan_compile_ms": (
        "compile_conjunction", "compile_conjunction_kernel",
        "compile_rule_kernel", "compile_rule",
    ),
    "engine.fixpoint_ms": ("SemiNaiveEngine.evaluate",),
    "engine.materialize_ms": ("retrieve",),
    "incremental.repair_insert_ms": ("apply_edb_delta:insert",),
    "incremental.repair_delete_ms": ("apply_edb_delta:delete",),
    "core.describe_ms": (
        "describe", "describe_necessary", "describe_without", "is_possible",
        "describe_wildcard", "compare_concepts", "describe_disjunctive",
    ),
    "core.transform_ms": ("transform_knowledge_base",),
    "catalog.mutate_ms": (
        "KnowledgeBase.add_fact", "Relation.delete", "KBTransaction.commit",
        "Durability.commit",
    ),
    "catalog.wal_append_ms": ("DurableLog.append", "DurableLog.snapshot"),
    "catalog.snapshot_publish_ms": ("publish_snapshot",),
    "server.queue_wait_ms": ("SessionPool.query",),
    "server.encode_ms": ("result_payload", "json.dumps"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: Recorder, ops: int, writes: int) -> dict[str, float]:
    """Every per-layer metric of the catalogue from one traced run.

    Times are self milliseconds per operation; counts are per operation;
    ratios are over the whole run.  A layer the workload never called
    reads 0.
    """
    self_ms = {name: value * 1000 for name, value in recorder.self_times().items()}
    counts = recorder.counts
    per_op = max(ops, 1)
    metrics: dict[str, float] = {}
    for metric, names in _TIME_METRICS.items():
        metrics[metric] = sum(self_ms.get(name, 0.0) for name in names) / per_op
    pool_ms = recorder.durations().get("SessionPool.query_sync", 0.0) * 1000
    metrics["server.pool_ms"] = pool_ms / per_op
    get = lambda name: counts.get(name, 0)  # noqa: E731
    metrics["analysis.summary_miss_ratio"] = _ratio(
        get("summary_misses"), get("summary_hits") + get("summary_misses")
    )
    metrics["engine.plan_cache_hit_ratio"] = _ratio(
        get("plan_hits"), get("plan_hits") + get("plan_misses")
    )
    metrics["engine.fixpoint_iterations"] = get("iterations") / per_op
    metrics["engine.facts_derived"] = get("facts_derived") / per_op
    metrics["engine.join_probes"] = get("join_probes") / per_op
    metrics["engine.answer_rows"] = get("answer_rows") / per_op
    metrics["engine.derived_per_answer"] = _ratio(get("facts_derived"), get("answer_rows"))
    probes = get("cache_hits") + get("cache_misses") + get("cache_incremental")
    metrics["viewcache.hit_ratio"] = _ratio(get("cache_hits") + get("cache_incremental"), probes)
    metrics["viewcache.incremental_refreshes"] = get("cache_incremental") / per_op
    metrics["viewcache.full_refreshes"] = get("cache_full") / per_op
    metrics["viewcache.evictions"] = get("cache_evictions") / per_op
    metrics["session.memo_hit_ratio"] = _ratio(
        get("memo_hits"), get("memo_hits") + get("memo_misses")
    )
    metrics["core.nodes_expanded"] = get("nodes_expanded") / per_op
    metrics["core.nodes_cut"] = get("nodes_cut") / per_op
    metrics["core.search_steps"] = get("search_steps") / per_op
    metrics["core.answers_per_node"] = _ratio(get("answer_rules"), get("nodes_expanded"))
    metrics["catalog.wal_fsyncs"] = _ratio(get("fsyncs"), writes)
    metrics["catalog.wal_bytes_per_write"] = _ratio(get("wal_bytes"), writes)
    # Measured from outside the server process; the served workload fills them in.
    for name in (
        "server.overhead_ms", "server.session_builds_per_commit",
        "server.rejected", "server.timed_out",
    ):
        metrics[name] = 0.0
    return metrics


def attributed_seconds(recorder: Recorder) -> float:
    """Summed self time of every recorded layer span."""
    return sum(recorder.self_times(by_layer=True).values())
