"""Integer join kernels: the ``executor="kernel"`` backend.

This module *kernelizes* a logical plan (:mod:`repro.engine.plan`) into
the integer domain of the process-wide symbol table
(:data:`repro.catalog.symbols.SYMBOLS`), so joins never hash
:class:`~repro.logic.terms.Constant` objects:

* every step is specialized over **symbol ids** — the build side reads
  a relation's interned rows (:meth:`Relation.int_rows`), constant
  arguments are interned once at compile time, and join keys are plain ints (id-equality is exactly
  constant-equality, see :mod:`repro.catalog.symbols`);
* adjacent scan→join→compare steps are **fused**: a comparison whose
  operands are ground right after a join becomes a per-row filter closure
  applied inside that join's probe loop, so no intermediate batch is
  materialised;
* each filter/operand is a small closure specialized at compile time over
  the concrete slot indexes and interned constants — the hot loop carries
  no interpretation of step metadata.

Join *order*, slot layout and safety checking come from
:func:`repro.engine.plan.compile_rule` /
:func:`~repro.engine.plan.compile_conjunction`; only the value domain and
the loop bodies live here.

Order comparisons (``<``, ``>=``, …) are about *values*, not identities,
so their closures externalize ids back to constants before comparing —
they keep the exact semantics (including the incompatible-type
:class:`~repro.errors.LogicError`) of the nested reference executor.

:class:`IntTable` is the transient fact store the semi-naive engine uses
in kernel mode: an append-only list/set pair of id tuples, presenting the
same ``(arity, version, int_rows, distinct_count)`` surface as
:class:`~repro.catalog.relation.Relation`, so build-side memoization and
the cardinality estimator work unchanged.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence

from repro.errors import ArityError, LogicError
from repro.catalog.symbols import SYMBOLS
from repro.engine.joins import CostEstimator
from repro.engine.plan import (
    DELTA_PREFIX,
    ConjunctionPlan,
    RulePlan,
    _AntiJoin,
    _Bind,
    _Compare,
    _HashJoin,
    compile_conjunction,
    compile_rule,
)
from repro.logic.atoms import Atom
from repro.logic.builtins import comparable
from repro.logic.clauses import Rule
from repro.logic.terms import Constant, Variable

#: An intermediate batch: one symbol-id tuple per binding.
IntBatch = list[tuple[int, ...]]

#: A row filter specialized over the combined (binding + extension) row.
RowFilter = Callable[[tuple[int, ...]], bool]

_ORDER_OPS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _projector(cols: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A row -> tuple projector specialized over fixed column indexes.

    ``operator.itemgetter`` runs the multi-column case at C speed; the
    zero/one column cases need wrapping because itemgetter would return a
    scalar (or not accept zero indexes).
    """
    if not cols:
        return lambda row: ()
    if len(cols) == 1:
        col = cols[0]
        return lambda row: (row[col],)
    return operator.itemgetter(*cols)


class IntTable:
    """An append-only set of interned rows (the kernel's working store).

    ``version`` is the row count: rows are only ever appended, so the
    count is a valid monotone version for ``(identity, version)``-keyed
    build-table memos — the same protocol as :attr:`Relation.version`.
    """

    __slots__ = ("arity", "rows", "index", "_stats")

    def __init__(self, arity: int, rows: Sequence[tuple[int, ...]] = ()) -> None:
        self.arity = arity
        self.rows: list[tuple[int, ...]] = list(rows)
        self.index: set[tuple[int, ...]] = set(self.rows)
        self._stats: dict[int, tuple[int, int]] = {}

    def add(self, row: tuple[int, ...]) -> bool:
        """Append a row; returns ``False`` if it was already present."""
        if row in self.index:
            return False
        self.index.add(row)
        self.rows.append(row)
        return True

    def extend_new(self, rows) -> None:
        """Append rows known to be absent (caller already deduplicated)."""
        self.index.update(rows)
        self.rows.extend(rows)

    def int_rows(self) -> list[tuple[int, ...]]:
        return self.rows

    @property
    def version(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.index

    def distinct_count(self, column: int) -> int:
        """Distinct values in a column, memoized per version (planner use)."""
        cached = self._stats.get(column)
        if cached is not None and cached[0] == len(self.rows):
            return cached[1]
        count = len({row[column] for row in self.rows})
        self._stats[column] = (len(self.rows), count)
        return count


def _filtered_rows(relation, const_checks, dup_checks):
    """Build-side rows passing the constant/duplicate checks."""
    if not const_checks and not dup_checks:
        return relation.int_rows()
    return [
        row
        for row in relation.int_rows()
        if all(row[c] == sid for c, sid in const_checks)
        and all(row[left] == row[right] for left, right in dup_checks)
    ]


class _KJoin:
    """A hash join specialized over symbol ids, with fused row filters.

    Lowers :class:`repro.engine.plan._HashJoin` — same key slots/columns —
    with a build side memoized per ``(relation, version)`` over interned
    rows; the probe loop applies any fused comparison filters before a
    combined row is admitted to the output batch.
    """

    __slots__ = (
        "predicate", "arity", "key_slots", "key_cols",
        "const_checks", "dup_checks", "out_cols", "fused",
        "_project", "_key_of", "_probe_key",
        "_cache_rel", "_cache_ver", "_cache_table",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, int]],
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
        self.fused: list[RowFilter] = []
        # Specialized at compile time: C-speed projectors over the
        # concrete column/slot indexes this join uses.
        self._project = _projector(out_cols)
        self._key_of = _projector(key_cols)
        self._probe_key = _projector(key_slots)
        self._cache_rel: object = None
        self._cache_ver = -1
        self._cache_table: object = None

    def _build(self, relation) -> object:
        version = relation.version
        if self._cache_rel is relation and self._cache_ver == version:
            return self._cache_table
        rows = _filtered_rows(relation, self.const_checks, self.dup_checks)
        project = self._project
        if not self.key_cols:
            table: object = list(map(project, rows))
        elif len(self.key_cols) == 1:
            key_col = self.key_cols[0]
            single: dict[int, list[tuple[int, ...]]] = {}
            for row in rows:
                single.setdefault(row[key_col], []).append(project(row))
            table = single
        else:
            key_of = self._key_of
            multi: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for row in rows:
                multi.setdefault(key_of(row), []).append(project(row))
            table = multi
        self._cache_rel = relation
        self._cache_ver = version
        self._cache_table = table
        return table

    def run(self, batch: IntBatch, relations) -> IntBatch:
        relation = relations(self.predicate)
        if relation is None or len(relation) == 0:
            return []
        if relation.arity != self.arity:
            raise ArityError(
                f"atom {self.predicate}/{self.arity} does not match relation "
                f"arity {relation.arity}"
            )
        table = self._build(relation)
        fused = self.fused
        result: IntBatch = []
        append = result.append
        if not self.key_slots:
            if fused:
                for binding in batch:
                    for extension in table:  # type: ignore[union-attr]
                        row = binding + extension
                        if all(check(row) for check in fused):
                            append(row)
            else:
                for binding in batch:
                    for extension in table:  # type: ignore[union-attr]
                        append(binding + extension)
        elif len(self.key_slots) == 1:
            slot = self.key_slots[0]
            get = table.get  # type: ignore[union-attr]
            if fused:
                for binding in batch:
                    matches = get(binding[slot])
                    if matches:
                        for extension in matches:
                            row = binding + extension
                            if all(check(row) for check in fused):
                                append(row)
            else:
                for binding in batch:
                    matches = get(binding[slot])
                    if matches:
                        for extension in matches:
                            append(binding + extension)
        else:
            probe_key = self._probe_key
            get = table.get  # type: ignore[union-attr]
            if fused:
                for binding in batch:
                    matches = get(probe_key(binding))
                    if matches:
                        for extension in matches:
                            row = binding + extension
                            if all(check(row) for check in fused):
                                append(row)
            else:
                for binding in batch:
                    matches = get(probe_key(binding))
                    if matches:
                        for extension in matches:
                            append(binding + extension)
        return result


class _KBind:
    """``=`` with one unbound side, over ids."""

    __slots__ = ("source_slot", "source_id")

    def __init__(self, source_slot: int | None, source_id: int | None) -> None:
        self.source_slot = source_slot
        self.source_id = source_id

    def run(self, batch: IntBatch, relations) -> IntBatch:
        if self.source_slot is not None:
            slot = self.source_slot
            return [binding + (binding[slot],) for binding in batch]
        extension = (self.source_id,)
        return [binding + extension for binding in batch]


class _KFilter:
    """A standalone (unfused) comparison filter over the batch."""

    __slots__ = ("check",)

    def __init__(self, check: RowFilter) -> None:
        self.check = check

    def run(self, batch: IntBatch, relations) -> IntBatch:
        check = self.check
        return [binding for binding in batch if check(binding)]


class _KAntiJoin:
    """A negated atom as an anti-join over id keys (memoized key set)."""

    __slots__ = (
        "predicate", "arity", "key_slots", "key_cols", "const_checks",
        "_cache_rel", "_cache_ver", "_cache_keys",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_slots: list[int],
        key_cols: list[int],
        const_checks: list[tuple[int, int]],
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.key_slots = key_slots
        self.key_cols = key_cols
        self.const_checks = const_checks
        self._cache_rel: object = None
        self._cache_ver = -1
        self._cache_keys: set | None = None

    def _keys(self, relation) -> set:
        version = relation.version
        if self._cache_rel is relation and self._cache_ver == version:
            return self._cache_keys  # type: ignore[return-value]
        key_cols = self.key_cols
        keys: set = set()
        for row in _filtered_rows(relation, self.const_checks, ()):
            keys.add(tuple(row[c] for c in key_cols))
        self._cache_rel = relation
        self._cache_ver = version
        self._cache_keys = keys
        return keys

    def run(self, batch: IntBatch, relations) -> IntBatch:
        relation = relations(self.predicate)
        if relation is None or len(relation) == 0:
            return batch
        if relation.arity != self.arity:
            raise ArityError(
                f"negated atom {self.predicate}/{self.arity} does not match "
                f"relation arity {relation.arity}"
            )
        keys = self._keys(relation)
        if not keys:
            return batch
        slots = self.key_slots
        return [
            binding
            for binding in batch
            if tuple(binding[s] for s in slots) not in keys
        ]


def _operand_reader(
    slot: int | None, const: Constant | None
) -> Callable[[tuple[int, ...]], Constant]:
    """Read a comparison operand as a *constant* from an id row."""
    if slot is not None:
        extern = SYMBOLS.extern
        return lambda row, s=slot: extern(row[s])
    return lambda row, c=const: c  # type: ignore[misc]


def _compare_filter(step: _Compare, skip_check: bool = False) -> RowFilter:
    """Specialize one comparison into an id-row filter closure.

    Equality/disequality compare ids directly (id-equality is
    constant-equality); order operators externalize to values and keep the
    incompatible-type error of the nested executor.  *skip_check* elides
    that comparability check — only set when the type analysis proved both
    operands homogeneous (both numeric, both str, or both bool), in which
    case the check can never fire.
    """
    op = step.op
    left_slot, right_slot = step.left_slot, step.right_slot
    if op in ("=", "!="):
        want_equal = op == "="
        if left_slot is not None and right_slot is not None:
            if want_equal:
                return lambda row: row[left_slot] == row[right_slot]
            return lambda row: row[left_slot] != row[right_slot]
        if left_slot is None and right_slot is None:
            result = (step.left_const == step.right_const) == want_equal
            return lambda row: result
        slot = left_slot if left_slot is not None else right_slot
        const = step.right_const if left_slot is not None else step.left_const
        sid = SYMBOLS.intern(const)  # type: ignore[arg-type]
        if want_equal:
            return lambda row: row[slot] == sid
        return lambda row: row[slot] != sid
    compare = _ORDER_OPS[op]
    left = _operand_reader(left_slot, step.left_const)
    right = _operand_reader(right_slot, step.right_const)
    if skip_check:
        return lambda row: compare(left(row).value, right(row).value)

    def check(row: tuple[int, ...]) -> bool:
        l, r = left(row), right(row)
        if not comparable(l, r):
            raise LogicError(
                f"cannot order-compare {l!r} and {r!r} (incompatible types)"
            )
        return compare(l.value, r.value)

    return check


class ConjunctionKernel:
    """A kernelized physical plan: same schema, id-domain steps."""

    __slots__ = ("schema", "steps", "described")

    def __init__(
        self,
        schema: tuple[Variable, ...],
        steps: list,
        described: list[str],
    ) -> None:
        self.schema = schema
        self.steps = steps
        self.described = described

    def execute(self, relations, guard=None, tracer=None) -> IntBatch:
        """Run the kernel; *guard* (a :class:`~repro.engine.guard.ResourceGuard`)
        is checkpointed at every step boundary, charged with the batch size,
        and *tracer* counts the same batch sizes as ``join_probes``."""
        batch: IntBatch = [()]
        for step in self.steps:
            if guard is not None:
                guard.tick(len(batch))
            if tracer is not None:
                tracer.count("join_probes", len(batch))
            batch = step.run(batch, relations)
            if not batch:
                return []
        return batch


class RuleKernel:
    """A conjunction kernel plus the rule's head projection (over ids)."""

    __slots__ = ("rule", "kernel", "head_template", "_fast_project")

    def __init__(
        self,
        rule: Rule,
        kernel: ConjunctionKernel,
        head_template: list[tuple[bool, int]],
    ) -> None:
        self.rule = rule
        self.kernel = kernel
        self.head_template = head_template
        # The common all-variables head projects at C speed; heads with
        # constant arguments take the generic template loop.
        if all(not is_const for is_const, _ in head_template):
            self._fast_project = _projector([value for _, value in head_template])
        else:
            self._fast_project = None

    def execute(self, relations, guard=None, tracer=None) -> IntBatch:
        batch = self.kernel.execute(relations, guard, tracer)
        if not batch:
            return []
        project = self._fast_project
        if project is not None:
            return list(map(project, batch))
        template = self.head_template
        return [
            tuple(value if is_const else binding[value] for is_const, value in template)
            for binding in batch
        ]


def _strip_delta(predicate: str) -> str:
    if predicate.startswith(DELTA_PREFIX):
        return predicate[len(DELTA_PREFIX):]
    return predicate


def _order_check_skippable(left, right) -> bool:
    """Whether ``comparable()`` is provably redundant for these domains.

    Both-numeric passes the check and compares cleanly; both-str / both-bool
    likewise.  Mixed non-numeric kinds (str vs bool) would *pass*
    ``comparable()`` yet raise ``TypeError`` inside python's ``<``, so they
    must keep the guarded closure.
    """
    if left.numeric_only and right.numeric_only:
        return True
    for kind in ("str", "bool"):
        single = frozenset({kind})
        if left.kinds == single and right.kinds == single:
            return True
    return False


class _SlotDomains:
    """Per-slot abstract domains over the plan steps executed so far.

    A slot's domain is the meet of the column domains of the joins that
    have bound or probed it *before* the current step — exactly the rows
    a comparison placed there can see.  Joins later in the plan (and the
    comparisons themselves) never narrow it: using them to skip a
    comparison's own comparability check would be unsound.  Delta atoms
    read the base predicate's domains (a delta is a subset of it).
    """

    def __init__(self, summary) -> None:
        self._summary = summary
        self.domains: list = []

    def join(self, step: _HashJoin) -> None:
        def column(index: int):
            return self._summary.column_domain(_strip_delta(step.predicate), index)

        for slot, col in zip(step.key_slots, step.key_cols):
            self.domains[slot] = self.domains[slot].meet(column(col))
        for col in step.out_cols:
            domain = column(col)
            for left, right in step.dup_checks:
                if left == col:
                    domain = domain.meet(column(right))
            self.domains.append(domain)

    def bind(self, step: _Bind) -> None:
        self.domains.append(self.operand(step.source_slot, step.source_const))

    def operand(self, slot: int | None, const: Constant | None):
        from repro.analysis.absint.lattice import from_constant

        if slot is None:
            return from_constant(const)  # type: ignore[arg-type]
        return self.domains[slot]


def kernelize_conjunction(plan: ConjunctionPlan, summary=None) -> ConjunctionKernel:
    """Lower a logical plan into the integer domain, fusing filters.

    A comparison step whose predecessor (after lowering) is a join is
    folded into that join's probe loop; chains of comparisons after one
    join all fuse, since filters do not change the slot schema.

    With an :class:`~repro.analysis.absint.summary.AnalysisSummary` the
    lowering additionally specializes from proven facts: an order
    comparison whose operands are homogeneous over the joins placed
    before it (:class:`_SlotDomains`) drops the per-row comparability
    check.
    """
    slot_domains = _SlotDomains(summary) if summary is not None else None
    steps: list = []
    described: list[str] = []
    for step, line in zip(plan.steps, plan.described):
        if isinstance(step, _HashJoin):
            kjoin = _KJoin(
                step.predicate,
                step.arity,
                step.key_slots,
                step.key_cols,
                [(col, SYMBOLS.intern(value)) for col, value in step.const_checks],
                step.dup_checks,
                step.out_cols,
            )
            if slot_domains is not None:
                slot_domains.join(step)
            steps.append(kjoin)
            described.append(line)
        elif isinstance(step, _Bind):
            source_id = (
                None
                if step.source_const is None
                else SYMBOLS.intern(step.source_const)
            )
            if slot_domains is not None:
                slot_domains.bind(step)
            steps.append(_KBind(step.source_slot, source_id))
            described.append(line)
        elif isinstance(step, _Compare):
            skip_check = (
                slot_domains is not None
                and step.op not in ("=", "!=")
                and _order_check_skippable(
                    slot_domains.operand(step.left_slot, step.left_const),
                    slot_domains.operand(step.right_slot, step.right_const),
                )
            )
            check = _compare_filter(step, skip_check=skip_check)
            if steps and isinstance(steps[-1], _KJoin):
                steps[-1].fused.append(check)
                described.append(f"{line} [fused]")
            else:
                steps.append(_KFilter(check))
                described.append(line)
        elif isinstance(step, _AntiJoin):
            steps.append(
                _KAntiJoin(
                    step.predicate,
                    step.arity,
                    step.key_slots,
                    step.key_cols,
                    [(col, SYMBOLS.intern(value)) for col, value in step.const_checks],
                )
            )
            described.append(line)
        else:  # pragma: no cover - the four step kinds are exhaustive
            raise TypeError(f"cannot kernelize plan step {type(step).__name__}")
    return ConjunctionKernel(plan.schema, steps, described)


def kernelize_rule(plan: RulePlan, summary=None) -> RuleKernel:
    """Lower a rule plan: the body's kernel plus an id-domain head template."""
    template: list[tuple[bool, int]] = [
        (True, SYMBOLS.intern(value)) if is_const else (is_const, value)  # type: ignore[arg-type]
        for is_const, value in plan.head_template
    ]
    return RuleKernel(plan.rule, kernelize_conjunction(plan.plan, summary), template)


def compile_conjunction_kernel(
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom] = (),
    estimate: CostEstimator | None = None,
    summary=None,
) -> ConjunctionKernel:
    """Compile a conjunction straight to an integer kernel."""
    plan = compile_conjunction(conjuncts, negated, estimate=estimate)
    return kernelize_conjunction(plan, summary)


def compile_rule_kernel(
    rule: Rule, estimate: CostEstimator | None = None, summary=None
) -> RuleKernel:
    """Compile one rule to an integer kernel with head projection."""
    return kernelize_rule(compile_rule(rule, estimate=estimate), summary)


def substitutions_from_kernel_batch(kernel: ConjunctionKernel, batch: IntBatch):
    """Externalize an id batch back into :class:`Substitution` objects."""
    from repro.logic.substitution import Substitution

    schema = kernel.schema
    extern_row = SYMBOLS.extern_row
    for binding in batch:
        yield Substitution(dict(zip(schema, extern_row(binding))))
