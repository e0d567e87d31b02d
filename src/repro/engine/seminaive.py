"""Semi-naive bottom-up evaluation of the IDB.

The classic deductive-database fixpoint: predicates are evaluated stratum by
stratum (strongly connected components of the dependency graph in
topological order); within a recursive stratum, each iteration joins every
rule against the *delta* (facts new in the previous iteration) in one body
position at a time, so no derivation is recomputed.

Evaluation is *relevance-restricted*: only predicates the query (transitively)
depends on are materialised.

Two executors drive rule bodies (the ``executor`` knob; ``None`` picks
``"kernel"``):

* ``"kernel"`` (default) — each rule body is compiled once per
  ``(rule, delta-position)`` into a logical plan (:mod:`repro.engine.plan`)
  and lowered to an integer join kernel (:mod:`repro.engine.kernels`); the
  whole stratum fixpoint runs over symbol-id tuples and the results are
  externalized back into relations when the stratum completes;
* ``"nested"`` — the tuple-at-a-time nested-loop reference executor of
  :mod:`repro.engine.joins`, kept as the differential oracle; the join
  order is still computed once per ``(rule, delta-position)`` rather than
  on every delta iteration.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import SafetyError
from repro.catalog.database import KnowledgeBase
from repro.catalog.relation import Relation, Row
from repro.engine.guard import ResourceGuard
from repro.engine.joins import bind_row, join_conjunction, order_conjuncts, relation_cost_estimator
from repro.engine.kernels import IntTable, RuleKernel, kernelize_rule
from repro.engine.plan import (
    DELTA_PREFIX as _DELTA_PREFIX,
    analysis_estimator,
    compile_rule,
    resolve_executor,
)
from repro.engine.safety import check_rule_safety
from repro.obs.trace import recording, traced_span
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.substitution import Substitution
from repro.logic.terms import is_constant


class SemiNaiveEngine:
    """Bottom-up evaluator producing materialised IDB relations.

    Parameters
    ----------
    kb:
        The knowledge base to evaluate.
    max_derived_facts:
        Legacy fact budget; shorthand for ``guard=ResourceGuard(max_facts=N)``
        (ignored when an explicit *guard* is given).  Exceeding it raises
        :class:`~repro.errors.EvaluationLimitError`.
    executor:
        ``"kernel"`` (the default, also for ``None``) for the
        integer-interned kernel executor, ``"nested"`` for the
        tuple-at-a-time reference executor.
    guard:
        A :class:`~repro.engine.guard.ResourceGuard` governing the whole
        evaluation (deadline, fact/step/iteration budgets, cancellation).
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording stratum / iteration /
        rule spans with ``facts_derived``, ``delta_rows`` and ``join_probes``
        counters.  ``None`` (the default) or a disabled tracer keeps the
        hot path untraced.
    analysis:
        Analysis-informed planning control: ``None`` (the default) follows
        the ``REPRO_PLAN_ANALYSIS`` flag, ``False`` disables it, ``True``
        forces it, and a prebuilt
        :class:`~repro.analysis.absint.summary.AnalysisSummary` is used
        directly.  When enabled, join ordering falls back to abstract
        cardinality estimates for not-yet-materialised IDB relations and
        the kernel executor specializes comparisons/joins from inferred
        column domains.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        max_derived_facts: int | None = None,
        executor: str | None = None,
        guard: ResourceGuard | None = None,
        tracer=None,
        analysis=None,
    ) -> None:
        executor = resolve_executor(executor)
        if max_derived_facts is not None and max_derived_facts < 1:
            raise ValueError(
                f"max_derived_facts must be at least 1, got {max_derived_facts!r} "
                "(omit the argument to disable the budget)"
            )
        if guard is None and max_derived_facts is not None:
            guard = ResourceGuard(max_facts=max_derived_facts)
        self._kb = kb
        self._guard = guard
        self._tracer = recording(tracer)
        self._executor = executor
        #: Analysis-informed planning: ``None`` resolves via the
        #: ``REPRO_PLAN_ANALYSIS`` flag, ``False`` disables, ``True`` forces,
        #: and an :class:`AnalysisSummary` instance is used as-is.
        self._analysis = analysis
        self._derived: dict[str, Relation] = {}
        self._delta: dict[str, Relation] = {}
        self._evaluated: set[str] = set()
        #: Per-stratum cache: (rule index, delta position) -> pre-ordered
        #: body (nested executor) or lowered integer kernel (kernel executor).
        self._orders: dict[tuple[int, int], list[Atom]] = {}
        self._kernels: dict[tuple[int, int], RuleKernel] = {}

    # -- public API ---------------------------------------------------------------

    def evaluate(self, predicates: Sequence[str] | None = None) -> dict[str, Relation]:
        """Materialise the requested IDB predicates (all, when ``None``).

        Returns a mapping from predicate name to its derived relation.
        Repeated calls reuse earlier materialisations.
        """
        kb = self._kb
        if predicates is None:
            wanted = set(kb.idb_predicates())
        else:
            wanted = {p for p in predicates if kb.is_idb(p)}
        graph = kb.dependency_graph()
        relevant = set(wanted)
        for predicate in wanted:
            relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
        todo = relevant - self._evaluated
        if todo:
            for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
                members = [p for p in stratum if p in todo]
                if members:
                    evaluated = set(stratum) & relevant
                    with traced_span(
                        self._tracer, "stratum", predicates=sorted(evaluated)
                    ):
                        self._evaluate_stratum(evaluated)
                    self._evaluated.update(evaluated)
        return {p: self._relation(p) for p in wanted}

    def derived_relation(self, predicate: str) -> Relation:
        """The materialised relation for one IDB predicate (evaluating it)."""
        self.evaluate([predicate])
        return self._relation(predicate)

    def fact_count(self) -> int:
        """Total number of derived facts materialised so far."""
        return sum(len(r) for r in self._derived.values())

    def partial_relation(self, predicate: str) -> Relation:
        """The current (possibly incomplete) materialisation of a predicate.

        Used by degrade-mode callers after a budget trips mid-fixpoint: the
        rows present are genuinely derivable (bottom-up derivation is
        monotone), so the partial relation is a sound under-approximation.
        """
        return self._relation(predicate)

    @property
    def executor(self) -> str:
        """The executor this engine evaluates rule bodies with."""
        return self._executor

    @property
    def guard(self) -> ResourceGuard | None:
        """The resource guard governing this engine (``None`` = unbounded)."""
        return self._guard

    # -- internals -------------------------------------------------------------------

    def _relation(self, predicate: str) -> Relation:
        if predicate not in self._derived:
            arity = self._kb.schema(predicate).arity if self._kb.has_predicate(predicate) else 0
            self._derived[predicate] = Relation(arity)
        return self._derived[predicate]

    def _relation_view(self, predicate: str) -> Relation | None:
        """The relation an atom of *predicate* currently reads (or ``None``)."""
        if predicate.startswith(_DELTA_PREFIX):
            return self._delta.get(predicate[len(_DELTA_PREFIX):])
        if self._kb.is_edb(predicate):
            return self._kb.relation(predicate)
        if self._kb.is_idb(predicate):
            return self._relation(predicate)
        return None

    def _analysis_summary(self):
        """Resolve (and pin) the analysis summary, or ``None`` when off.

        The summary itself is cached per knowledge base keyed on
        ``(rules_version, EDB versions)`` (see
        :func:`repro.analysis.absint.summary.summary_for`), so resolving it
        here is a dictionary hit for every repeat evaluation.
        """
        analysis = self._analysis
        if analysis is False:
            return None
        if analysis is None or analysis is True:
            from repro.analysis.absint.summary import planning_enabled, summary_for

            if analysis is None and not planning_enabled():
                self._analysis = False
                return None
            summary = summary_for(self._kb)
            self._analysis = summary
            return summary
        return analysis

    def _cost_estimator(self, relation_for):
        """The join-order estimator: live stats + analysis fallback."""
        summary = self._analysis_summary()
        if summary is None:
            return relation_cost_estimator(relation_for)
        return analysis_estimator(relation_for, summary)

    def _resolver(self, atom: Atom, theta: Substitution) -> Iterator[Substitution]:
        """Resolve a positive atom against EDB, derived, or delta relations."""
        relation = self._relation_view(atom.predicate)
        if relation is None:
            return  # undefined predicate: empty extension
        pattern = [arg if is_constant(arg) else None for arg in atom.args]
        for row in relation.lookup(pattern):
            extended = bind_row(atom, row, theta)
            if extended is not None:
                yield extended

    def _head_row(self, rule: Rule, theta: Substitution) -> Row:
        head = theta.apply(rule.head)
        if not head.is_ground():
            raise SafetyError(f"derived head is not ground: {head} (rule {rule})")
        return tuple(head.args)  # type: ignore[return-value]

    def _negatives_absent(self, rule: Rule, theta: Substitution) -> bool:
        """Whether every negated body atom has no matching stored/derived row.

        Stratification guarantees the negated predicates' relations are
        complete by the time the rule fires (their strata come first).
        """
        for atom in rule.negated:
            instantiated = theta.apply(atom)
            if not instantiated.is_ground():
                raise SafetyError(
                    f"negated atom {instantiated} is not ground at evaluation time"
                )
            predicate = instantiated.predicate
            if self._kb.is_edb(predicate):
                relation = self._kb.relation(predicate)
            elif self._kb.is_idb(predicate):
                relation = self._relation(predicate)
            else:
                continue  # undefined predicate: trivially absent
            if next(relation.lookup(list(instantiated.args)), None) is not None:
                return False
        return True

    def _fire_rule(self, rule: Rule, plan_key: tuple[int, int]) -> list[Row]:
        """All head rows derivable from one rule under current relations.

        The join order is cardinality-aware and computed once per
        ``(rule, delta-position)`` for the stratum.
        """
        guard = self._guard
        tracer = self._tracer
        ordered = self._orders.get(plan_key)
        if ordered is None:
            estimate = self._cost_estimator(self._relation_view)
            ordered = order_conjuncts(rule.body, estimate=estimate)
            self._orders[plan_key] = ordered
        rows: list[Row] = []
        solutions = 0
        for theta in join_conjunction(self._resolver, ordered, reorder=False):
            solutions += 1
            if guard is not None:
                guard.tick()
            if rule.negated and not self._negatives_absent(rule, theta):
                continue
            rows.append(self._head_row(rule, theta))
        if tracer is not None and solutions:
            tracer.count("join_probes", solutions)
        return rows

    def _stratum_rules(
        self, stratum: set[str]
    ) -> tuple[list[Rule], list[tuple[int, int, Rule]]]:
        """The stratum's rules, safety-checked, and their delta rewritings.

        Each rewriting is ``(rule_index, position, rewritten)``: the rule
        with its body atom at *position* — one whose predicate is in the
        stratum — reading the previous iteration's delta instead.  They
        are built once per stratum; an empty list means the stratum is not
        recursive and one round reaches the fixpoint.
        """
        rules = [r for p in sorted(stratum) for r in self._kb.rules_for(p)]
        for rule in rules:
            check_rule_safety(rule)
        rewritten: list[tuple[int, int, Rule]] = []
        for rule_index, rule in enumerate(rules):
            for position, atom in enumerate(rule.body):
                if atom.predicate in stratum:
                    body = list(rule.body)
                    body[position] = Atom(_DELTA_PREFIX + atom.predicate, atom.args)
                    rewritten.append((rule_index, position, rule.with_body(body)))
        return rules, rewritten

    def _kernel_for(self, rule: Rule, plan_key: tuple[int, int], view) -> RuleKernel:
        """The rule's integer kernel, compiled once per stratum and plan key."""
        kernel = self._kernels.get(plan_key)
        if kernel is None:
            plan = compile_rule(rule, estimate=self._cost_estimator(view))
            kernel = kernelize_rule(plan, self._analysis_summary())
            self._kernels[plan_key] = kernel
        return kernel

    def _evaluate_stratum(self, stratum: set[str]) -> None:
        if self._executor == "kernel":
            self._evaluate_stratum_kernel(stratum)
            return
        rules, rewritten_rules = self._stratum_rules(stratum)
        # Join orders are cached for the lifetime of this stratum evaluation.
        self._orders = {}

        # Initial round: full evaluation (recursive atoms see empty relations).
        # Rows are materialised before insertion: a rule like a permutation
        # rule reads the very relation its head writes.
        guard = self._guard
        tracer = self._tracer
        delta_rows: dict[str, set[Row]] = {p: set() for p in stratum}
        for rule_index, rule in enumerate(rules):
            with traced_span(tracer, "rule", rule=str(rule), phase="initial"):
                relation = self._relation(rule.head.predicate)
                inserted = 0
                for row in self._fire_rule(rule, (rule_index, -1)):
                    if relation.insert(row):
                        delta_rows[rule.head.predicate].add(row)
                        inserted += 1
                if guard is not None and inserted:
                    guard.count_facts(inserted)
                if tracer is not None and inserted:
                    tracer.count("facts_derived", inserted)

        if not rewritten_rules:
            return

        iteration = 0
        while any(delta_rows.values()):
            iteration += 1
            if guard is not None:
                guard.iteration()
            with traced_span(tracer, "iteration", index=iteration):
                if tracer is not None:
                    tracer.count(
                        "delta_rows", sum(len(rows) for rows in delta_rows.values())
                    )
                self._delta = {
                    p: Relation(self._relation(p).arity, rows)
                    for p, rows in delta_rows.items()
                }
                new_rows: dict[str, set[Row]] = {p: set() for p in stratum}
                for rule_index, position, rewritten in rewritten_rules:
                    with traced_span(
                        tracer,
                        "rule",
                        rule=str(rules[rule_index]),
                        delta_position=position,
                    ):
                        target = new_rows[rewritten.head.predicate]
                        before = len(target)
                        relation = self._relation(rewritten.head.predicate)
                        for row in self._fire_rule(rewritten, (rule_index, position)):
                            if row not in relation:
                                target.add(row)
                        if tracer is not None and len(target) != before:
                            tracer.count("facts_derived", len(target) - before)
                for predicate, rows in new_rows.items():
                    self._relation(predicate).insert_many(rows)
                    if guard is not None and rows:
                        guard.count_facts(len(rows))
                delta_rows = new_rows
                self._delta = {}

    def _evaluate_stratum_kernel(self, stratum: set[str]) -> None:
        """Integer-domain stratum fixpoint for ``executor="kernel"``.

        Mirrors the nested path of :meth:`_evaluate_stratum` step for step —
        same initial round, same delta rewriting, same guard/tracer
        accounting — but the stratum's derived and delta fact sets live as
        :class:`~repro.engine.kernels.IntTable` id tuples for the whole
        fixpoint: no per-row coercion, journaling, or constant hashing on
        the hot path.  Rows are externalized back to constants and
        bulk-inserted into the derived relations when the stratum finishes.
        The flush runs on the way out even when a budget trips mid-fixpoint
        (bottom-up derivation is monotone, so the partial table is a sound
        under-approximation — the same degrade contract as the nested
        executor).
        """
        rules, rewritten_rules = self._stratum_rules(stratum)
        self._kernels = {}
        guard = self._guard
        tracer = self._tracer
        tables = {p: IntTable(self._relation(p).arity) for p in stratum}
        kdelta: dict[str, IntTable] = {}

        def kview(predicate: str):
            """Kernel-side relation view: IntTables for in-flight predicates,
            the ordinary relations (interned on demand) for everything else."""
            if predicate.startswith(_DELTA_PREFIX):
                return kdelta.get(predicate[len(_DELTA_PREFIX):])
            table = tables.get(predicate)
            if table is not None:
                return table
            return self._relation_view(predicate)

        def fire(rule: Rule, plan_key: tuple[int, int]) -> list[tuple[int, ...]]:
            return self._kernel_for(rule, plan_key, kview).execute(kview, guard, tracer)

        try:
            delta_sets: dict[str, set[tuple[int, ...]]] = {p: set() for p in stratum}
            for rule_index, rule in enumerate(rules):
                with traced_span(tracer, "rule", rule=str(rule), phase="initial"):
                    table = tables[rule.head.predicate]
                    inserted = 0
                    for irow in fire(rule, (rule_index, -1)):
                        if table.add(irow):
                            delta_sets[rule.head.predicate].add(irow)
                            inserted += 1
                    if guard is not None and inserted:
                        guard.count_facts(inserted)
                    if tracer is not None and inserted:
                        tracer.count("facts_derived", inserted)

            if not rewritten_rules:
                return

            iteration = 0
            while any(delta_sets.values()):
                iteration += 1
                if guard is not None:
                    guard.iteration()
                with traced_span(tracer, "iteration", index=iteration):
                    if tracer is not None:
                        tracer.count(
                            "delta_rows", sum(len(rows) for rows in delta_sets.values())
                        )
                    kdelta = {
                        p: IntTable(tables[p].arity, list(rows))
                        for p, rows in delta_sets.items()
                    }
                    new_sets: dict[str, set[tuple[int, ...]]] = {p: set() for p in stratum}
                    for rule_index, position, rewritten in rewritten_rules:
                        with traced_span(
                            tracer,
                            "rule",
                            rule=str(rules[rule_index]),
                            delta_position=position,
                        ):
                            target = new_sets[rewritten.head.predicate]
                            before = len(target)
                            index = tables[rewritten.head.predicate].index
                            for irow in fire(rewritten, (rule_index, position)):
                                if irow not in index:
                                    target.add(irow)
                            if tracer is not None and len(target) != before:
                                tracer.count("facts_derived", len(target) - before)
                    for predicate, rows in new_sets.items():
                        # Rows were checked against the table while firing,
                        # and the per-predicate set already deduplicated
                        # across rules: extend without re-probing.
                        tables[predicate].extend_new(rows)
                        if guard is not None and rows:
                            guard.count_facts(len(rows))
                    delta_sets = new_sets
                    kdelta = {}
        finally:
            # Externalize once per stratum: id tuples -> constant rows.
            # Runs on the exception path too, so a tripped budget leaves the
            # usual sound partial materialisation behind.
            for predicate, table in tables.items():
                if table.rows:
                    self._relation(predicate).load_interned(table.rows)
