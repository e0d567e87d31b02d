"""Unit tests for the integer join kernels (``executor="kernel"``).

The kernel executor lowers compiled logical plans into symbol-id space
(:mod:`repro.engine.kernels`).  These tests pin the lowering itself:
answer parity with the nested reference executor, comparison fusion into
the preceding join's probe loop, order-comparison semantics over
externalized values (including the incompatible-type ``LogicError``),
the analysis-driven comparison-check elision, head projection, counter
accounting, and the :class:`IntTable` working store.
"""

import pytest

from repro.catalog.database import KnowledgeBase
from repro.catalog.symbols import SYMBOLS
from repro.engine.evaluate import evaluate_conjunction
from repro.engine.kernels import (
    ConjunctionKernel,
    IntTable,
    compile_conjunction_kernel,
    compile_rule_kernel,
    substitutions_from_kernel_batch,
)
from repro.engine.plan import compile_conjunction
from repro.errors import LogicError
from repro.lang.parser import parse_atom, parse_rule
from repro.logic.atoms import comparison
from repro.logic.terms import Constant, Variable


@pytest.fixture
def kb():
    base = KnowledgeBase()
    base.declare_edb("edge", 2)
    base.add_facts("edge", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "a")])
    base.declare_edb("score", 2)
    base.add_facts("score", [("a", 1), ("b", 2), ("c", 3)])
    return base


def nested_rows(kb, conjuncts, negated, schema):
    """The nested reference executor's answers, as rows over *schema*."""
    solutions = evaluate_conjunction(
        kb, conjuncts, negated=negated, executor="nested"
    )
    return {tuple(theta.apply_term(v) for v in schema) for theta in solutions}


def run_both(kb, conjuncts, negated=()):
    """Execute a conjunction under nested and kernel; return both answer sets."""
    kernel = compile_conjunction_kernel(conjuncts, negated)
    kernel_rows = {SYMBOLS.extern_row(row) for row in kernel.execute(kb.relation)}
    return nested_rows(kb, conjuncts, negated, kernel.schema), kernel_rows


class TestConjunctionParity:
    def test_join_parity(self, kb):
        nested, kernel = run_both(
            kb, [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        )
        assert kernel == nested and nested

    def test_constant_and_duplicate_arguments(self, kb):
        nested, kernel = run_both(kb, [parse_atom("edge(a, X)")])
        assert kernel == nested and nested
        nested, kernel = run_both(kb, [parse_atom("edge(X, X)")])
        assert kernel == nested == {(Constant("a"),)}

    def test_negated_atom_parity(self, kb):
        nested, kernel = run_both(
            kb,
            [parse_atom("edge(X, Y)")],
            negated=[parse_atom("edge(Y, X)")],
        )
        assert kernel == nested and nested

    def test_bind_step_parity(self, kb):
        conjuncts = [
            parse_atom("edge(X, Y)"),
            comparison(Variable("Z"), "=", Constant("tag")),
        ]
        nested, kernel = run_both(kb, conjuncts)
        assert kernel == nested and nested


class TestComparisonFusion:
    def test_compare_after_join_fuses(self, kb):
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), ">=", Constant(2)),
        ]
        plan = compile_conjunction(conjuncts)
        kernel = compile_conjunction_kernel(conjuncts)
        # The comparison folded into the join: one fewer executable step,
        # and its described line is marked.
        assert len(kernel.steps) == len(plan.steps) - 1
        assert any(line.endswith("[fused]") for line in kernel.described)
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert rows == nested_rows(kb, conjuncts, (), kernel.schema)
        assert {row[0] for row in rows} == {Constant("b"), Constant("c")}

    def test_comparison_chain_all_fuses(self, kb):
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), ">", Constant(1)),
            comparison(Variable("V"), "<", Constant(3)),
        ]
        plan = compile_conjunction(conjuncts)
        kernel = compile_conjunction_kernel(conjuncts)
        assert len(kernel.steps) == len(plan.steps) - 2
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert {row[0] for row in rows} == {Constant("b")}

    def test_order_comparison_on_incomparable_types_raises(self, kb):
        # score holds ints; comparing against text must raise the same
        # LogicError the nested executor raises (ids are externalized for
        # order comparisons, never compared as raw ints).
        conjuncts = [
            parse_atom("score(X, V)"),
            comparison(Variable("V"), "<", Constant("banana")),
        ]
        kernel = compile_conjunction_kernel(conjuncts)
        with pytest.raises(LogicError):
            nested_rows(kb, conjuncts, (), kernel.schema)
        with pytest.raises(LogicError):
            kernel.execute(kb.relation)

    def test_identity_comparison_uses_ids(self, kb):
        # = / != are identity comparisons: valid across types, no extern.
        conjuncts = [
            parse_atom("edge(X, Y)"),
            comparison(Variable("X"), "!=", Variable("Y")),
        ]
        nested, kernel = run_both(kb, conjuncts)
        assert kernel == nested
        assert (Constant("a"), Constant("a")) not in kernel


class TestAnalysisGuardSoundness:
    """The analysis-informed check elision must not use unsound evidence.

    An order comparison may skip its comparability check only when its
    operands are homogeneous over the joins the plan places *before* it.
    Two kinds of evidence are unsound: the comparison's own narrowing
    (``X < 1`` narrows ``X`` to numeric even when the column also holds
    strings), and atoms joined only *after* the comparison (``e1(X)``
    narrows ``X`` to ``{1}``, but the plan filters ``X < 1`` straight after
    ``e0`` where ``X`` can still be ``a``).  Either would turn the engine's
    ``LogicError`` on mixed columns into a raw ``TypeError``.
    """

    MIXED = "e0(a, a).\ne0(1, a).\nc0(X) <- e0(X, Y) and (X < 1).\n"
    LATER_JOIN = (
        "e0(a, a). e0(1, a). e1(b). e1(1).\n"
        "c0(X) <- e0(X, Y) and e1(X) and (X < 1).\n"
    )

    def test_mixed_column_keeps_logicerror(self):
        from repro import kb_from_program, retrieve

        for program in (self.MIXED, self.LATER_JOIN):
            for executor in ("nested", "kernel"):
                with pytest.raises(LogicError):
                    retrieve(kb_from_program(program), parse_atom("c0(X)"),
                             executor=executor)

    def test_pre_guard_domains_drive_skip_decision(self):
        from repro import kb_from_program
        from repro.analysis.absint.summary import summary_for
        from repro.engine.kernels import kernelize_conjunction

        kb = kb_from_program(self.MIXED + "n(1). n(2).\n")
        summary = summary_for(kb)

        def fused_check(source):
            rule = parse_rule(source)
            plan = compile_conjunction(rule.body)
            return kernelize_conjunction(plan, summary).steps[0].fused[0]

        # Probe each closure with a row the analysis says cannot occur: a
        # kept check raises LogicError, an elided one python's TypeError.
        text = (SYMBOLS.intern(Constant("text")), SYMBOLS.intern(Constant("a")))
        with pytest.raises(LogicError):
            fused_check("c0(X) <- e0(X, Y) and (X < 1)")(text)
        with pytest.raises(TypeError):
            fused_check("c1(X) <- n(X) and (X < 2)")(text[:1])


class TestRuleKernel:
    def test_head_projection_parity(self, kb):
        rule = parse_rule("linked(Y, X) <- edge(X, Y).")
        nested = nested_rows(kb, rule.body, (), rule.head.args)
        kernel = compile_rule_kernel(rule)
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert rows == nested and rows

    def test_constant_in_head(self, kb):
        rule = parse_rule("tagged(X, marker) <- edge(X, Y).")
        nested = nested_rows(kb, rule.body, (), rule.head.args)
        kernel = compile_rule_kernel(rule)
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert rows == nested
        assert all(row[1] == Constant("marker") for row in rows)


class TestCounters:
    class _Tracer:
        def __init__(self):
            self.counters = {}

        def count(self, name, value=1):
            self.counters[name] = self.counters.get(name, 0) + value

    def test_join_probe_accounting_matches_batch(self, kb):
        # Each step boundary charges the size of the batch entering it:
        # 1 seed binding into edge(X, Y), then its 4 rows into edge(Y, Z).
        conjuncts = [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        tracer = self._Tracer()
        compile_conjunction_kernel(conjuncts).execute(kb.relation, tracer=tracer)
        assert tracer.counters == {"join_probes": 1 + 4}


class TestSubstitutions:
    def test_externalized_substitutions_bind_schema_variables(self, kb):
        conjuncts = [parse_atom("edge(a, Y)")]
        kernel = compile_conjunction_kernel(conjuncts)
        batch = kernel.execute(kb.relation)
        substitutions = list(substitutions_from_kernel_batch(kernel, batch))
        values = {s[Variable("Y")] for s in substitutions}
        assert values == {Constant("b"), Constant("a")}


class TestIntTable:
    def test_add_deduplicates(self):
        table = IntTable(2)
        assert table.add((1, 2))
        assert not table.add((1, 2))
        assert table.add((2, 3))
        assert table.rows == [(1, 2), (2, 3)]
        assert (1, 2) in table and (9, 9) not in table

    def test_version_is_monotone_row_count(self):
        table = IntTable(1)
        assert table.version == 0
        table.add((1,))
        table.add((2,))
        assert table.version == len(table) == 2

    def test_extend_new_skips_probing(self):
        table = IntTable(1, [(1,)])
        table.extend_new([(2,), (3,)])
        assert table.rows == [(1,), (2,), (3,)]
        assert (3,) in table

    def test_distinct_count_memoized_per_version(self):
        table = IntTable(2, [(1, 1), (2, 1)])
        assert table.distinct_count(0) == 2
        assert table.distinct_count(1) == 1
        table.add((3, 9))
        assert table.distinct_count(1) == 2


class TestKernelCaches:
    def test_build_side_memo_keyed_on_version(self, kb):
        conjuncts = [parse_atom("edge(X, Y)"), parse_atom("edge(Y, Z)")]
        kernel = compile_conjunction_kernel(conjuncts)
        first = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        # Warm cache: same relation, same version — and still correct
        # after a mutation bumps the version.
        assert {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)} == first
        kb.add_fact("edge", "d", "e")
        fresh = {SYMBOLS.extern_row(r) for r in kernel.execute(kb.relation)}
        assert (Constant("c"), Constant("d"), Constant("e")) in fresh

    def test_kernel_is_reusable_across_relation_objects(self, kb):
        conjuncts = [parse_atom("edge(X, Y)")]
        kernel = compile_conjunction_kernel(conjuncts)
        assert kernel.execute(kb.relation)
        other = KnowledgeBase()
        other.declare_edb("edge", 2)
        other.add_facts("edge", [("z", "w")])
        rows = {SYMBOLS.extern_row(r) for r in kernel.execute(other.relation)}
        assert rows == {(Constant("z"), Constant("w"))}

    def test_empty_relation_short_circuits(self, kb):
        kernel = compile_conjunction_kernel([parse_atom("edge(X, Y)")])
        empty = KnowledgeBase()
        empty.declare_edb("edge", 2)
        assert kernel.execute(empty.relation) == []
        assert isinstance(kernel, ConjunctionKernel)
