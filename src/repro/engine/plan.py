"""Logical plans for rule bodies and query conjunctions.

A conjunction is compiled *once* into a plan: the join order chosen by the
cardinality estimator, a slot layout (the ordered variables bound so far),
and one step record per conjunct:

* each positive atom becomes a :class:`_HashJoin` keyed on the columns
  shared with already-bound variables, with constant arguments and
  repeated variables recorded as build-side filters;
* comparisons become filter steps (:class:`_Compare`) placed at the
  earliest position where their operands are ground, and ``=`` with one
  unbound side becomes a :class:`_Bind` step extending the slot schema;
* negated atoms become anti-join probes (:class:`_AntiJoin`) after the
  positive body has bound their variables.

Plans carry no runtime: :func:`repro.engine.kernels.kernelize_conjunction`
lowers them to integer join kernels over interned symbol ids, and
``explain`` prints their ``described`` lines.  The tuple-at-a-time
reference executor (:mod:`repro.engine.joins`) solves conjunctions without
a plan and serves as the differential oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import SafetyError
from repro.catalog.relation import Relation
from repro.engine.joins import CostEstimator, order_conjuncts
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable, is_constant

#: Executor selector values accepted by the public API: the tuple-at-a-time
#: nested-loop reference executor (:mod:`repro.engine.joins`) and the
#: integer-interned kernel executor (:mod:`repro.engine.kernels`).
EXECUTORS = ("nested", "kernel")

#: The executor used when callers pass ``executor=None``.
DEFAULT_EXECUTOR = "kernel"

#: Marker prefix distinguishing a delta occurrence inside a rewritten body
#: (shared by the semi-naive engine and the analysis-aware estimator).
DELTA_PREFIX = "\x7fdelta\x7f:"

#: Accessor from predicate name to its current relation (``None`` =
#: undefined predicate, i.e. an empty extension).
RelationView = Callable[[str], Relation | None]


def check_executor(executor: str) -> None:
    """Raise :class:`~repro.errors.EngineError` on an unknown executor name."""
    if executor not in EXECUTORS:
        from repro.errors import EngineError

        raise EngineError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )


def resolve_executor(executor: str | None) -> str:
    """Validate an explicit executor or resolve ``None`` to the default."""
    if executor is None:
        return DEFAULT_EXECUTOR
    check_executor(executor)
    return executor


def analysis_estimator(relation_for: RelationView, summary) -> CostEstimator:
    """A cost estimator backed by live stats *and* analysis estimates.

    Live relation statistics win whenever the relation is non-empty (they
    are exact); the abstract cardinality estimate from *summary* (an
    :class:`~repro.analysis.absint.summary.AnalysisSummary`) fills in for
    IDB predicates whose relations are still empty at plan-compile time —
    exactly the blind spot of the purely syntactic ordering, since plans
    are compiled once per stratum before any facts are derived.
    """
    from repro.engine.joins import relation_cost_estimator

    live = relation_cost_estimator(relation_for)

    def estimate(atom: Atom, bound: set[Variable]) -> float | None:
        relation = relation_for(atom.predicate)
        if relation is not None and len(relation) > 0:
            return live(atom, bound)
        predicate = atom.predicate
        if predicate.startswith(DELTA_PREFIX):
            if relation is None:
                return None  # delta not materialised yet: genuinely unknown
            predicate = predicate[len(DELTA_PREFIX):]
        rows = summary.estimated_rows(predicate)
        if rows is None:
            return live(atom, bound)
        if rows <= 0:
            return 0.0
        size = float(rows)
        distincts = summary.distinct_estimates(predicate) or ()
        for column, arg in enumerate(atom.args):
            if is_constant(arg) or arg in bound:
                distinct = distincts[column] if column < len(distincts) else 1.0
                if distinct > 1.0:
                    size /= distinct
        return max(size, 0.001)

    return estimate


class _HashJoin:
    """Join the bindings against one relation, keyed on shared variables.

    Constant arguments and intra-atom repeated variables become build-side
    filters (``const_checks`` / ``dup_checks``); ``out_cols`` are the
    columns that bind new variables, appended to the slot schema in order.
    """

    __slots__ = (
        "predicate", "arity", "key_slots", "key_cols",
        "const_checks", "dup_checks", "out_cols",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, Constant]],
        dup_checks: list[tuple[int, int]],
        out_cols: list[int],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.const_checks = const_checks
        self.dup_checks = dup_checks
        self.out_cols = out_cols


class _Bind:
    """``=`` with one unbound side: extend every binding with a new slot."""

    __slots__ = ("source_slot", "source_const")

    def __init__(self, source_slot: int | None, source_const: Constant | None) -> None:
        self.source_slot = source_slot
        self.source_const = source_const


class _Compare:
    """A comparison filter, placed where both operands are ground.

    Each operand is a slot index or a constant (the other is ``None``).
    """

    __slots__ = ("op", "left_slot", "left_const", "right_slot", "right_const")

    def __init__(
        self,
        op: str,
        left_slot: int | None,
        left_const: Constant | None,
        right_slot: int | None,
        right_const: Constant | None,
    ) -> None:
        self.op = op
        self.left_slot = left_slot
        self.left_const = left_const
        self.right_slot = right_slot
        self.right_const = right_const


class _AntiJoin:
    """A negated atom: drop bindings with a matching row (closed world)."""

    __slots__ = ("predicate", "arity", "key_slots", "key_cols", "const_checks")

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, Constant]],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.const_checks = const_checks


class ConjunctionPlan:
    """The logical plan for one conjunction (plus negated atoms).

    ``schema`` is the ordered tuple of variables the plan binds, one slot
    per variable; ``steps`` are the step records above, in execution order.
    ``described`` carries one human-readable line per step, recorded at
    compile time (when the slot→variable mapping is known) for ``explain``.
    """

    __slots__ = ("schema", "steps", "described")

    def __init__(
        self,
        schema: tuple[Variable, ...],
        steps: list,
        described: list[str] | None = None,
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.described = described or []


class RulePlan:
    """A conjunction plan plus the head projection for one rule.

    ``head_template`` holds one ``(is_const, value)`` pair per head
    argument: a constant, or the slot index the argument reads.
    """

    __slots__ = ("rule", "plan", "head_template")

    def __init__(
        self,
        rule: Rule,
        plan: ConjunctionPlan,
        head_template: list[tuple[bool, object]],
    ) -> None:
        self.rule = rule
        self.plan = plan
        self.head_template = head_template


def compile_conjunction(
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    estimate: CostEstimator | None = None,
) -> ConjunctionPlan:
    """Compile a conjunction into a logical plan.

    The join order comes from :func:`order_conjuncts` (cardinality-aware
    when *estimate* is given), so comparisons are placed at the earliest
    ground position.  Raises :class:`SafetyError` when a comparison can
    never become ground, or when a negated atom uses a variable the
    positive conjuncts leave unbound.
    """
    ordered = order_conjuncts(conjuncts, estimate=estimate)
    slots: dict[Variable, int] = {}
    steps: list = []
    described: list[str] = []

    def operand(term: object) -> tuple[int | None, Constant | None]:
        if is_constant(term):
            return None, term  # type: ignore[return-value]
        return slots[term], None  # type: ignore[index]

    for atom in ordered:
        if atom.is_comparison():
            left, right = atom.args
            left_bound = is_constant(left) or left in slots
            right_bound = is_constant(right) or right in slots
            if atom.predicate == "=" and not (left_bound and right_bound):
                source = left if left_bound else right
                target = right if left_bound else left
                source_slot, source_const = operand(source)
                steps.append(_Bind(source_slot, source_const))
                described.append(f"bind {target} = {source}")
                slots[target] = len(slots)  # type: ignore[index]
            else:
                left_slot, left_const = operand(left)
                right_slot, right_const = operand(right)
                steps.append(
                    _Compare(atom.predicate, left_slot, left_const, right_slot, right_const)
                )
                described.append(f"filter {atom}")
            continue
        key_slots: list[int] = []
        key_cols: list[int] = []
        const_checks: list[tuple[int, Constant]] = []
        dup_checks: list[tuple[int, int]] = []
        out_cols: list[int] = []
        out_vars: list[Variable] = []
        local: dict[Variable, int] = {}
        for col, arg in enumerate(atom.args):
            if is_constant(arg):
                const_checks.append((col, arg))  # type: ignore[arg-type]
            elif arg in slots:
                key_slots.append(slots[arg])  # type: ignore[index]
                key_cols.append(col)
            elif arg in local:
                dup_checks.append((local[arg], col))  # type: ignore[index]
            else:
                local[arg] = col  # type: ignore[index]
                out_cols.append(col)
                out_vars.append(arg)  # type: ignore[arg-type]
        steps.append(
            _HashJoin(
                atom.predicate, atom.arity, key_slots, key_cols,
                const_checks, dup_checks, out_cols,
            )
        )
        join_vars = [
            variable for variable, slot in slots.items() if slot in key_slots
        ]
        notes: list[str] = []
        if join_vars:
            notes.append("join on " + ", ".join(str(v) for v in join_vars))
        elif slots:
            notes.append("cartesian")
        else:
            notes.append("scan")
        if const_checks:
            notes.append(
                "filter "
                + ", ".join(f"col{col}={value}" for col, value in const_checks)
            )
        if out_vars:
            notes.append("binds " + ", ".join(str(v) for v in out_vars))
        if estimate is not None:
            expected = estimate(atom, set(slots))
            if expected is not None:
                notes.append(f"est~{expected:.0f} rows")
        described.append(f"hash_join {atom} [{'; '.join(notes)}]")
        for variable in out_vars:
            slots[variable] = len(slots)

    for atom in negated:
        key_slots = []
        key_cols = []
        const_checks = []
        for col, arg in enumerate(atom.args):
            if is_constant(arg):
                const_checks.append((col, arg))  # type: ignore[arg-type]
            elif arg in slots:
                key_slots.append(slots[arg])  # type: ignore[index]
                key_cols.append(col)
            else:
                raise SafetyError(
                    f"negated atom {atom} uses variable {arg} not bound by "
                    "the positive conjuncts"
                )
        steps.append(
            _AntiJoin(atom.predicate, atom.arity, key_slots, key_cols, const_checks)
        )
        described.append(f"anti_join not {atom}")

    schema = tuple(sorted(slots, key=slots.__getitem__))
    return ConjunctionPlan(schema, steps, described)


def compile_rule(rule: Rule, estimate: CostEstimator | None = None) -> RulePlan:
    """Compile one rule into a logical plan with head projection.

    Raises :class:`SafetyError` when a head variable is not bound by the
    body (the derived head would not be ground).
    """
    plan = compile_conjunction(rule.body, rule.negated, estimate=estimate)
    slot_of = {variable: i for i, variable in enumerate(plan.schema)}
    template: list[tuple[bool, object]] = []
    for arg in rule.head.args:
        if is_constant(arg):
            template.append((True, arg))
        elif arg in slot_of:
            template.append((False, slot_of[arg]))
        else:
            raise SafetyError(
                f"derived head is not ground: {rule.head} (rule {rule})"
            )
    return RulePlan(rule, plan, template)

