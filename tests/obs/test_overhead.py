"""Disabled tracing must be (nearly) free on the benchmark smoke pair.

Instrumentation sites guard on ``tracer is None`` and fire per rule /
iteration / plan step — never per row.  The engine entry points map a
disabled tracer (such as :data:`~repro.obs.NULL_TRACER`) to ``None``, so
it takes exactly the untraced branches: one test pins that no method of a
disabled tracer is ever called, and the timing tests hold the null-tracer
ratio on the benchmark runner's smoke workloads under 5%.

Timing assertions are noisy under CI load, so each measurement takes the
minimum of several repeats and the comparison retries before failing.
"""

import time

import pytest

from repro.datasets import chain_graph_kb, random_graph_kb
from repro.engine import retrieve
from repro.engine.evaluate import ENGINES
from repro.engine.plan import EXECUTORS
from repro.engine.seminaive import SemiNaiveEngine
from repro.lang.parser import parse_atom
from repro.obs import NULL_TRACER, NullTracer

#: Allowed slowdown with the null tracer attached (<5% per the spec).
LIMIT = 1.05
REPEATS = 5
ATTEMPTS = 4


def _materialise(make_kb, predicate, tracer):
    best = float("inf")
    for _ in range(REPEATS):
        kb = make_kb()
        start = time.perf_counter()
        SemiNaiveEngine(kb, tracer=tracer).derived_relation(predicate)
        best = min(best, time.perf_counter() - start)
    return best


def _ratio(make_kb, predicate):
    off = _materialise(make_kb, predicate, None)
    null = _materialise(make_kb, predicate, NULL_TRACER)
    return null / off if off > 0 else 1.0


def assert_overhead(make_kb, predicate):
    ratios = []
    for _ in range(ATTEMPTS):
        ratio = _ratio(make_kb, predicate)
        if ratio < LIMIT:
            return
        ratios.append(round(ratio, 4))
    raise AssertionError(
        f"null tracer overhead exceeded {LIMIT}x on every attempt: {ratios}"
    )


def test_null_tracer_overhead_chain():
    assert_overhead(lambda: chain_graph_kb(60), "path")


def test_null_tracer_overhead_random_graph():
    assert_overhead(lambda: random_graph_kb(nodes=20, edges=40, seed=13), "path")


class _TrippingTracer(NullTracer):
    """A disabled tracer that fails the test if the engine calls into it."""

    def _called(self, *args, **kwargs):
        raise AssertionError("a disabled tracer was called on the hot path")

    span = start = end = count = annotate = event = _called


@pytest.mark.parametrize("executor", EXECUTORS)
def test_disabled_tracer_is_never_called_by_the_fixpoint(executor):
    engine = SemiNaiveEngine(
        chain_graph_kb(10), executor=executor, tracer=_TrippingTracer()
    )
    assert len(engine.evaluate()["path"]) == 55


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_tracer_is_never_called_by_retrieve(engine):
    result = retrieve(
        chain_graph_kb(10), parse_atom("path(X, Y)"), engine=engine,
        tracer=_TrippingTracer(),
    )
    assert len(result.rows) == 55
