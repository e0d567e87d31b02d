"""Trace counters must reconcile with the engine's own accounting.

The span tree is a *second* set of books: facts derived, cache traffic,
and memo hits are independently counted by the resource guard and the
view-cache statistics.  These tests assert the two ledgers agree, so the
tracer can be trusted for perf debugging.
"""

from repro.datasets import routing_kb, university_kb
from repro.engine.guard import ResourceGuard
from repro.session import Session


def traced_session(kb, **kwargs):
    return Session(kb, guard=ResourceGuard(max_steps=1_000_000), trace=True, **kwargs)


class TestGuardReconciliation:
    def test_facts_derived_matches_guard_facts(self):
        session = traced_session(university_kb())
        session.query("retrieve honor(X) where enroll(X, databases)")
        root = session.last_trace
        assert root.total("facts_derived") == root.attributes["guard_facts"]
        assert root.attributes["guard_complete"] is True

    def test_recursive_query_reconciles(self):
        session = traced_session(routing_kb())
        session.query("retrieve reach(lax, X)")
        root = session.last_trace
        assert root.total("facts_derived") == root.attributes["guard_facts"]
        # Delta iterations were traced and consumed guard iteration budget.
        assert len(root.find("iteration")) >= 1
        assert root.attributes["guard_iterations"] >= 1

    def test_kernel_executor_reconciles(self):
        # The kernel executor keeps its own interned working tables; its
        # books must still match the guard's fact accounting exactly.
        session = traced_session(routing_kb(), executor="kernel")
        session.query("retrieve reach(lax, X)")
        root = session.last_trace
        assert root.total("facts_derived") == root.attributes["guard_facts"]
        assert root.attributes["guard_complete"] is True
        assert len(root.find("iteration")) >= 1

    def test_kernel_counters_match_nested(self):
        counters = {}
        for executor in ("nested", "kernel"):
            session = traced_session(routing_kb(), executor=executor)
            session.query("retrieve reach(lax, X)")
            root = session.last_trace
            counters[executor] = {
                name: value
                for name, value in root.totals().items()
                if name in ("facts_derived", "delta_rows", "answer_rows")
            }
        assert counters["kernel"] == counters["nested"]

    def test_answer_rows_matches_result(self):
        session = traced_session(routing_kb())
        result = session.query("retrieve reach(lax, X)")
        assert session.last_trace.total("answer_rows") == len(result)


class TestCacheReconciliation:
    def test_cold_query_counts_one_miss(self):
        session = traced_session(university_kb())
        session.query("retrieve honor(X)")
        root = session.last_trace
        delta = root.attributes["cache_delta"]
        assert root.total("cache_misses") == delta["misses"] == 1
        assert root.total("statement_memo_misses") == delta["statement_misses"] == 1

    def test_warm_query_counts_statement_hit(self):
        session = traced_session(university_kb())
        session.query("retrieve honor(X)")
        session.query("retrieve honor(X)")
        root = session.last_trace
        assert root.total("statement_memo_hits") == 1
        assert root.attributes["cache_delta"]["statement_hits"] == 1
        assert root.total("cache_misses") == 0

    def test_fingerprint_hit_traced_as_probe_outcome(self):
        session = traced_session(university_kb())
        session.query("retrieve honor(X)")
        # Different statement text misses the memo but hits the view cache.
        session.query("retrieve honor(Y)")
        root = session.last_trace
        probes = root.find("cache.probe")
        assert probes and probes[0].attributes["outcome"] == "hit"
        assert root.total("cache_hits") == root.attributes["cache_delta"]["hits"] == 1

    def test_incremental_refresh_traced_as_repair(self):
        session = traced_session(university_kb())
        session.query("retrieve honor(X)")
        relation = session.kb.relation("student")
        row = relation.rows()[0]
        relation.delete(row)
        session.query("retrieve honor(Y)")
        root = session.last_trace
        delta = root.attributes["cache_delta"]
        probe = root.find("cache.probe")[0]
        assert probe.attributes["outcome"] == "incremental"
        assert (
            root.total("cache_incremental_refreshes")
            == delta["incremental_refreshes"]
            == 1
        )
        assert root.find("cache.repair")

    def test_trace_off_by_default_and_last_trace_none(self):
        session = Session(university_kb())
        session.query("retrieve honor(X)")
        assert session.tracer is None
        assert session.last_trace is None
