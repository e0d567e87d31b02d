"""Unit tests for the logical plan compiler and the executor knob.

Plans carry no runtime of their own: each compiled plan is run through its
integer-kernel lowering (:mod:`repro.engine.kernels`), the only bottom-up
path that executes plans.
"""

import pytest

from repro.errors import EngineError, LogicError, SafetyError
from repro.catalog.relation import Relation
from repro.engine import retrieve
from repro.catalog.symbols import SYMBOLS
from repro.engine.kernels import kernelize_conjunction, kernelize_rule
from repro.engine.plan import (
    EXECUTORS,
    RulePlan,
    check_executor,
    compile_conjunction,
    compile_rule,
)
from repro.engine.seminaive import SemiNaiveEngine
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.atoms import Atom, comparison
from repro.logic.clauses import Rule
from repro.logic.terms import Variable


def view_of(relations):
    return lambda predicate: relations.get(predicate)


def values(rows):
    return sorted(tuple(c.value for c in row) for row in rows)


def run(plan, view):
    """Execute a compiled rule or conjunction plan; constant rows out."""
    if isinstance(plan, RulePlan):
        rows = kernelize_rule(plan).execute(view)
    else:
        rows = kernelize_conjunction(plan).execute(view)
    return [SYMBOLS.extern_row(row) for row in rows]


class TestCompile:
    def test_simple_hash_join(self):
        rule = parse_rule("grand(X, Z) <- parent(X, Y) and parent(Y, Z).")
        plan = compile_rule(rule)
        relations = {
            "parent": Relation(2, [("a", "b"), ("b", "c"), ("b", "d")]),
        }
        assert values(run(plan, view_of(relations))) == [("a", "c"), ("a", "d")]

    def test_constant_filter_on_build_side(self):
        rule = parse_rule("p(X) <- q(X, k).")
        plan = compile_rule(rule)
        relations = {"q": Relation(2, [("a", "k"), ("b", "m")])}
        assert values(run(plan, view_of(relations))) == [("a",)]

    def test_repeated_variable_within_atom(self):
        rule = parse_rule("loop(X) <- edge(X, X).")
        plan = compile_rule(rule)
        relations = {"edge": Relation(2, [("a", "a"), ("a", "b"), ("c", "c")])}
        assert values(run(plan, view_of(relations))) == [("a",), ("c",)]

    def test_equality_binds_then_joins(self):
        rule = Rule(
            Atom("p", [Variable("X"), Variable("Y")]),
            [
                Atom("q", [Variable("X")]),
                comparison(Variable("Y"), "=", "k"),
            ],
        )
        plan = compile_rule(rule)
        relations = {"q": Relation(1, [("a",)])}
        assert values(run(plan, view_of(relations))) == [("a", "k")]

    def test_order_comparison_filters(self):
        rule = parse_rule("big(X) <- size(X, V) and (V > 2).")
        plan = compile_rule(rule)
        relations = {"size": Relation(2, [("a", 1), ("b", 3), ("c", 5)])}
        assert values(run(plan, view_of(relations))) == [("b",), ("c",)]

    def test_incompatible_order_comparison_raises(self):
        rule = parse_rule("big(X) <- size(X, V) and (V > 2).")
        plan = compile_rule(rule)
        relations = {"size": Relation(2, [("a", "tall")])}
        with pytest.raises(LogicError):
            run(plan, view_of(relations))

    def test_anti_join_negation(self):
        rule = Rule(
            Atom("only", [Variable("X")]),
            [Atom("all", [Variable("X")])],
            negated=[Atom("banned", [Variable("X")])],
        )
        plan = compile_rule(rule)
        relations = {
            "all": Relation(1, [("a",), ("b",), ("c",)]),
            "banned": Relation(1, [("b",)]),
        }
        assert values(run(plan, view_of(relations))) == [("a",), ("c",)]

    def test_negated_undefined_predicate_is_vacuous(self):
        rule = Rule(
            Atom("only", [Variable("X")]),
            [Atom("all", [Variable("X")])],
            negated=[Atom("ghost", [Variable("X")])],
        )
        plan = compile_rule(rule)
        relations = {"all": Relation(1, [("a",)])}
        assert values(run(plan, view_of(relations))) == [("a",)]

    def test_unbound_negated_variable_rejected_at_compile(self):
        rule = Rule(
            Atom("p", [Variable("X")]),
            [Atom("q", [Variable("X")])],
            negated=[Atom("r", [Variable("W")])],
        )
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_unbound_head_variable_rejected_at_compile(self):
        rule = Rule(Atom("p", [Variable("X"), Variable("W")]), [Atom("q", [Variable("X")])])
        with pytest.raises(SafetyError):
            compile_rule(rule)

    def test_undefined_body_predicate_is_empty(self):
        plan = compile_rule(parse_rule("p(X) <- ghost(X)."))
        assert run(plan, view_of({})) == []

    def test_constant_head_argument(self):
        plan = compile_rule(parse_rule("tagged(X, yes) <- q(X)."))
        relations = {"q": Relation(1, [("a",)])}
        assert values(run(plan, view_of(relations))) == [("a", "yes")]

    def test_conjunction_schema_order(self):
        plan = compile_conjunction(
            [parse_atom("q(X, Y)")],
        )
        relations = {"q": Relation(2, [("a", "b")])}
        assert [v.name for v in plan.schema] == ["X", "Y"]
        assert run(plan, view_of(relations)) != []


class TestBuildSideMemoization:
    def test_hash_table_reused_while_version_unchanged(self):
        rule = parse_rule("p(X, Y) <- q(X, Y).")
        kernel = kernelize_rule(compile_rule(rule))
        relation = Relation(2, [("a", "b")])
        view = view_of({"q": relation})
        kernel.execute(view)
        step = kernel.kernel.steps[0]
        table = step._cache_table
        kernel.execute(view)
        assert step._cache_table is table  # reused, not rebuilt

    def test_hash_table_invalidated_on_mutation(self):
        rule = parse_rule("p(X, Y) <- q(X, Y).")
        kernel = kernelize_rule(compile_rule(rule))
        relation = Relation(2, [("a", "b")])
        view = view_of({"q": relation})
        assert len(kernel.execute(view)) == 1
        relation.insert(("c", "d"))
        assert len(kernel.execute(view)) == 2


class TestExecutorKnob:
    def test_unknown_executor_rejected(self):
        with pytest.raises(EngineError):
            check_executor("vectorised")
        with pytest.raises(EngineError):
            SemiNaiveEngine(None, executor="vectorised")  # kb unused before check

    def test_retrieve_rejects_unknown_executor(self, uni):
        with pytest.raises(EngineError):
            retrieve(uni, parse_atom("honor(X)"), executor="vectorised")

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_both_executors_agree_on_university(self, uni, executor):
        result = retrieve(uni, parse_atom("honor(X)"), executor=executor)
        assert sorted(result.values()) == ["ann", "bob", "carol", "frank", "grace"]

    def test_engine_exposes_executor(self, uni):
        assert SemiNaiveEngine(uni).executor == "kernel"
        assert SemiNaiveEngine(uni, executor="nested").executor == "nested"

    def test_batch_executor_is_gone(self, uni, monkeypatch):
        assert EXECUTORS == ("nested", "kernel")
        with pytest.raises(EngineError, match=r"\('nested', 'kernel'\)"):
            retrieve(uni, parse_atom("honor(X)"), executor="batch")
        # No environment variable picks the executor any more.
        monkeypatch.setenv("REPRO_EXECUTOR", "batch")
        assert SemiNaiveEngine(uni).executor == "kernel"


class TestPlanCaching:
    def test_plans_cached_per_stratum(self):
        from repro.datasets import chain_graph_kb

        engine = SemiNaiveEngine(chain_graph_kb(10), executor="nested")
        engine.derived_relation("path")
        # Two rules; the recursive one also has a delta join order.
        keys = set(engine._orders)
        assert (0, -1) in keys and (1, -1) in keys
        assert any(delta >= 0 for _, delta in keys)

    def test_kernels_cached_per_stratum(self):
        from repro.datasets import chain_graph_kb

        engine = SemiNaiveEngine(chain_graph_kb(10), executor="kernel")
        engine.derived_relation("path")
        keys = set(engine._kernels)
        assert (0, -1) in keys and (1, -1) in keys
        assert any(delta >= 0 for _, delta in keys)
