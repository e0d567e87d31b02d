"""Analysis-informed planning is an *optimization*: answers never change.

Two properties over the same randomized program families the differential
matrix uses:

* **parity** — every query returns the identical answer set with the
  abstract-interpretation summary feeding the planner and with the purely
  syntactic planner (``REPRO_PLAN_ANALYSIS`` off);
* **soundness** — the inferred per-column domains over-approximate the
  actual derived relations (every constant of every derived row lies in
  its column's domain), and a cardinality estimate of zero rows is only
  ever given to a predicate that truly derives nothing.
"""

import os

from hypothesis import given, settings

from repro.analysis.absint.summary import (
    planning_override,
    reset_cache,
    summary_for,
)
from repro.analysis.model import ProgramModel
from repro.engine import retrieve
from repro.logic.atoms import Atom

from tests.property.test_engine_differential import (
    VARIABLES,
    positive_layered_program,
    recursive_graph_program,
)

EXAMPLES = int(os.environ.get("DIFFERENTIAL_EXAMPLES", "30"))


def _scan(kb, predicate, executor):
    arity = kb.schema(predicate).arity
    subject = Atom(predicate, VARIABLES[:arity])
    return retrieve(kb, subject, executor=executor).to_set()


def assert_planning_parity(kb, predicates):
    for predicate in predicates:
        for executor in ("nested", "kernel"):
            with planning_override(True):
                informed = _scan(kb, predicate, executor)
            with planning_override(False):
                syntactic = _scan(kb, predicate, executor)
            assert informed == syntactic, (
                f"{predicate} under {executor}: analysis-informed planning "
                f"changed the answers\n  on={sorted(informed)}\n"
                f"  off={sorted(syntactic)}"
            )


@settings(max_examples=EXAMPLES, deadline=None)
@given(positive_layered_program())
def test_layered_planning_parity(program):
    kb, idb = program
    assert_planning_parity(kb, idb)


@settings(max_examples=EXAMPLES, deadline=None)
@given(recursive_graph_program())
def test_recursive_planning_parity(program):
    kb, _ = program
    assert_planning_parity(kb, ["path", "reaches"])


@settings(max_examples=EXAMPLES, deadline=None)
@given(positive_layered_program())
def test_inferred_domains_cover_derived_rows(program):
    kb, idb = program
    summary = summary_for(kb)
    for predicate in idb:
        domains = summary.column_domains(predicate)
        assert domains is not None
        rows = _scan(kb, predicate, "nested")
        for row in rows:
            for domain, value in zip(domains, row):
                assert domain.contains(value), (
                    f"{predicate}: derived value {value!r} outside the "
                    f"inferred domain {domain.describe()}"
                )
        if summary.estimated_rows(predicate) == 0:
            assert rows == set(), (
                f"{predicate}: estimated empty but derived {len(rows)} rows"
            )


@settings(max_examples=EXAMPLES, deadline=None)
@given(recursive_graph_program())
def test_summary_cache_stays_coherent(program):
    """A cached summary is reused verbatim; mutating the kb invalidates it."""
    kb, pool = program
    reset_cache()
    first = summary_for(kb)
    assert summary_for(kb) is first  # fingerprint unchanged -> cache hit
    kb.add_fact("edge", "zz", pool[0])  # "zz" is outside the node pool
    second = summary_for(kb)
    assert second is not first  # fact mutation bumped the fingerprint
    model = ProgramModel.from_kb(kb)
    assert model.source_kb is kb
