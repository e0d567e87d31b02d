"""Public evaluation API: ``retrieve`` data queries and conjunction solving.

``retrieve p where psi`` (paper, section 3.1) finds the database values
whose substitution for the variables of ``p`` and ``psi`` satisfies
``p and psi``, returning the values of the free variables (those of ``p``).
When ``p`` uses a predicate unknown to the database, it is an ad-hoc
predicate defined by ``psi`` (the paper's Example 2 ``answer`` predicate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, MutableMapping, Sequence

from repro.errors import EngineError, ResourceExhausted, SafetyError
from repro.catalog.database import KnowledgeBase
from repro.engine.guard import Diagnostics, ResourceGuard, degrade_catch
from repro.engine.joins import bind_row, join_conjunction, relation_cost_estimator
from repro.engine.plan import compile_conjunction, resolve_executor
from repro.engine.seminaive import SemiNaiveEngine
from repro.engine.topdown import TopDownEngine
from repro.obs.trace import recording, traced_span
from repro.logic.atoms import Atom, atoms_variables
from repro.logic.substitution import Substitution
from repro.logic.terms import Constant, Variable, is_constant, is_variable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.viewcache import ViewCache

#: Engine selector values accepted by the public API.
ENGINES = ("seminaive", "topdown", "magic")

#: A compiled-plan cache: ``(rules_version, executor, fingerprint)`` ->
#: compiled conjunction kernel.  Sessions pass a bounded mapping so
#: repeat point lookups skip recompilation (see :class:`repro.session.Session`).
PlanCache = MutableMapping[tuple, object]


def _plan_cache_key(
    kb: KnowledgeBase,
    executor: str,
    conjuncts: Sequence[Atom],
    negated: Sequence[Atom],
) -> tuple:
    """The cache key for a compiled conjunction.

    ``rules_version`` keys out any rule change (compiled plans inline the
    join order chosen against the rules); the textual fingerprint keys the
    conjunction shape.  Fact-only mutations keep the key stable — the join
    order is frozen from the first compilation, which is correctness-neutral
    (any order is valid) and the point of the cache: repeat lookups after
    EDB churn skip straight to execution.
    """
    return (
        kb.rules_version,
        executor,
        " & ".join(str(atom) for atom in conjuncts),
        " & ".join(str(atom) for atom in negated),
    )


@dataclass
class RetrieveResult:
    """The answer to a data query.

    ``variables`` are the distinct free variables of the subject, in first
    occurrence order; ``rows`` are their bindings (constant tuples).  For a
    variable-free subject the result is Boolean: ``rows`` holds one empty
    tuple when the subject is derivable.

    ``diagnostics`` reports how a resource-governed query ended (``None``
    for ungoverned queries): a degrade-mode trip yields a partial answer
    with ``diagnostics.degraded`` true — a sound under-approximation.
    """

    subject: Atom
    variables: tuple[Variable, ...]
    rows: list[tuple[Constant, ...]] = field(default_factory=list)
    diagnostics: Diagnostics | None = None

    @property
    def complete(self) -> bool:
        """Whether the answer is exhaustive (no budget degraded it)."""
        return self.diagnostics is None or self.diagnostics.complete

    def __iter__(self) -> Iterator[tuple[Constant, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def boolean(self) -> bool:
        """Yes/no reading (meaningful for variable-free subjects)."""
        return bool(self.rows)

    def to_set(self) -> set[tuple[Constant, ...]]:
        """The answer as a set of binding tuples."""
        return set(self.rows)

    def values(self) -> list[object]:
        """Python values, flattened when the subject has one variable."""
        if len(self.variables) == 1:
            return [row[0].value for row in self.rows]
        return [tuple(c.value for c in row) for row in self.rows]

    def __str__(self) -> str:
        if not self.variables:
            return "yes" if self.rows else "no"
        names = ", ".join(v.name for v in self.variables)
        return f"{{{names}: {len(self.rows)} rows}}"


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise EngineError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def evaluate_conjunction(
    kb: KnowledgeBase,
    conjuncts: Sequence[Atom],
    engine: str = "seminaive",
    max_derived_facts: int | None = None,
    negated: Sequence[Atom] = (),
    executor: str | None = None,
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
    tracer=None,
    plan_cache: PlanCache | None = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying a conjunction over the database.

    ``negated`` conjuncts filter solutions by absence (closed world); their
    variables must be bound by the positive conjuncts.  ``executor``
    selects the bottom-up execution model: ``"kernel"`` (the default, also
    for ``None``) compiles the conjunction and the rules under it into
    logical plans lowered to integer join kernels over interned symbol ids
    (:mod:`repro.engine.kernels`); ``"nested"`` uses the tuple-at-a-time
    reference executor.  Only the seminaive engine honours the knob;
    topdown and magic are tuple-at-a-time by construction.

    ``plan_cache`` (a mutable mapping, usually a session's bounded cache)
    memoizes the compiled kernel for the query conjunction itself under
    ``(kb.rules_version, executor, fingerprint)``, so repeat point lookups
    skip recompilation.  Honoured by the kernel executor of the seminaive
    engine.

    ``guard`` governs the whole evaluation (deadline, fact budget,
    cancellation).  In strict mode exhaustion raises a
    :class:`~repro.errors.ResourceExhausted` error; in degrade mode the
    enumeration ends early instead — everything yielded is genuinely
    derivable, so the prefix is a sound under-approximation — and the trip
    is recorded on ``guard.tripped``.

    ``cache`` (a :class:`~repro.engine.viewcache.ViewCache` bound to *kb*)
    serves the seminaive engine's IDB materialisations from warm views when
    their dependency fingerprints are current, refreshing small EDB deltas
    incrementally.  It is ignored for other engines, for a mismatched
    knowledge base, and under an explicit ``max_derived_facts`` limit
    (cached relations were computed without one, so answers could differ).
    """
    _check_engine(engine)
    executor = resolve_executor(executor)
    tracer = recording(tracer)
    iterator = _evaluate_conjunction(
        kb, conjuncts, engine, max_derived_facts, negated, executor, guard, cache,
        tracer, plan_cache,
    )
    if guard is None or guard.mode != "degrade":
        yield from iterator
        return
    try:
        yield from iterator
    except ResourceExhausted as error:
        degrade_catch(guard, error)


def _evaluate_conjunction(
    kb: KnowledgeBase,
    conjuncts: Sequence[Atom],
    engine: str,
    max_derived_facts: int | None,
    negated: Sequence[Atom],
    executor: str,
    guard: ResourceGuard | None,
    cache: "ViewCache | None" = None,
    tracer=None,
    plan_cache: PlanCache | None = None,
) -> Iterator[Substitution]:
    if engine == "magic":
        from repro.engine.magic import magic_conjunction

        if negated:
            raise EngineError(
                "the magic engine covers positive queries; use seminaive or "
                "topdown for negated qualifiers"
            )
        yield from magic_conjunction(
            kb, conjuncts, max_derived_facts=max_derived_facts, guard=guard,
            tracer=tracer,
        )
        return
    if engine == "topdown":
        evaluator = TopDownEngine(
            kb, max_table_rows=max_derived_facts, guard=guard, tracer=tracer
        )

        def absent_topdown(theta: Substitution) -> bool:
            for atom in negated:
                instantiated = theta.apply(atom)
                if not instantiated.is_ground():
                    raise SafetyError(
                        f"negated conjunct {instantiated} is not ground; bind its "
                        "variables with positive conjuncts"
                    )
                if next(iter(evaluator.query((instantiated,))), None) is not None:
                    return False
            return True

        for theta in evaluator.query(conjuncts):
            if not negated or absent_topdown(theta):
                yield theta
        return

    positive_predicates = {
        a.predicate for a in conjuncts if not a.is_comparison() and kb.is_idb(a.predicate)
    }
    negated_predicates = {a.predicate for a in negated if kb.is_idb(a.predicate)}
    wanted = sorted(positive_predicates | negated_predicates)
    # A cache only applies when bound to this knowledge base and when no
    # explicit fact limit is in force: cached views were materialised
    # without one, so a limited evaluation could legitimately differ.
    use_cache = (
        cache is not None and cache.kb is kb and max_derived_facts is None
    )
    materializer = (
        cache
        if use_cache
        else SemiNaiveEngine(
            kb, max_derived_facts=max_derived_facts, executor=executor, guard=guard,
            tracer=tracer,
        )
    )
    try:
        if use_cache:
            derived = cache.evaluate(
                wanted, executor=executor, guard=guard, tracer=tracer
            )
        else:
            derived = materializer.evaluate(wanted)
    except ResourceExhausted as error:
        # Degrade: the partial fixpoint is sound (derivation is monotone),
        # so finish the query over whatever was materialised before the
        # budget tripped.  degrade_catch re-raises in strict mode and
        # disarms the guard otherwise, letting the final join complete.
        degrade_catch(guard, error)
        if negated_predicates:
            # Absence filtering against a *partial* negated relation would
            # over-approximate (rows could pass that a complete evaluation
            # rejects); the only sound degraded answer is the empty one.
            return
        derived = {p: materializer.partial_relation(p) for p in wanted}

    def relation_view(predicate: str):
        if kb.is_edb(predicate):
            return kb.relation(predicate)
        return derived.get(predicate)

    if executor == "kernel":
        # The query conjunction runs as an integer kernel: compile (or
        # fetch from the plan cache), execute over interned rows, and
        # externalize ids back into substitutions at the boundary.
        from repro.engine.kernels import (
            kernelize_conjunction,
            substitutions_from_kernel_batch,
        )

        key = _plan_cache_key(kb, executor, conjuncts, negated)
        kernel = plan_cache.get(key) if plan_cache is not None else None
        if kernel is None:
            estimate = relation_cost_estimator(relation_view)
            kernel = kernelize_conjunction(
                compile_conjunction(conjuncts, negated, estimate=estimate)
            )
            if plan_cache is not None:
                plan_cache[key] = kernel
        yield from substitutions_from_kernel_batch(
            kernel, kernel.execute(relation_view, guard, tracer)
        )
        return

    def resolver(atom: Atom, theta: Substitution) -> Iterator[Substitution]:
        relation = relation_view(atom.predicate)
        if relation is None:
            return
        pattern = [arg if is_constant(arg) else None for arg in atom.args]
        for row in relation.lookup(pattern):
            extended = bind_row(atom, row, theta)
            if extended is not None:
                yield extended

    def absent(theta: Substitution) -> bool:
        for atom in negated:
            instantiated = theta.apply(atom)
            if not instantiated.is_ground():
                raise SafetyError(
                    f"negated conjunct {instantiated} is not ground; bind its "
                    "variables with positive conjuncts"
                )
            if next(resolver(instantiated, theta), None) is not None:
                return False
        return True

    estimate = relation_cost_estimator(relation_view)
    for theta in join_conjunction(resolver, conjuncts, estimate=estimate):
        if guard is not None:
            guard.tick()
        if not negated or absent(theta):
            yield theta


def retrieve(
    kb: KnowledgeBase,
    subject: Atom,
    qualifier: Sequence[Atom] = (),
    engine: str = "seminaive",
    max_derived_facts: int | None = None,
    negated_qualifier: Sequence[Atom] = (),
    executor: str | None = None,
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
    tracer=None,
    plan_cache: PlanCache | None = None,
) -> RetrieveResult:
    """Evaluate a data query ``retrieve subject where qualifier``.

    The free variables are those of the subject; all other variables are
    existential.  A subject with an unknown predicate is defined by the
    qualifier, so its variables must all occur in the qualifier.
    ``negated_qualifier`` conjuncts filter by absence ("foreign students who
    are not married"); their variables must be bound by the subject or the
    positive qualifier.  ``executor`` selects the bottom-up execution model
    (see :func:`evaluate_conjunction`).

    ``guard`` puts the query under a resource budget: strict mode raises
    :class:`~repro.errors.ResourceExhausted` on exhaustion; degrade mode
    returns the rows found so far with ``result.diagnostics`` marking the
    answer a sound under-approximation.  The guard is one activation — a
    :class:`~repro.session.Session` hands each query a fresh one.
    """
    _check_engine(engine)
    executor = resolve_executor(executor)
    tracer = recording(tracer)
    if subject.is_comparison():
        raise EngineError("the subject of retrieve may not be a comparison")

    free_vars: list[Variable] = []
    for arg in subject.args:
        if is_variable(arg) and arg not in free_vars:
            free_vars.append(arg)

    if kb.has_predicate(subject.predicate):
        kb.schema(subject.predicate).check_arity(subject.arity)
        conjunction: tuple[Atom, ...] = (subject, *qualifier)
    else:
        # Ad-hoc subject: defined through the qualifier (paper, Example 2).
        qualifier_vars = atoms_variables(qualifier)
        missing = [v for v in free_vars if v not in qualifier_vars]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise SafetyError(
                f"ad-hoc subject variable(s) {names} do not occur in the qualifier"
            )
        conjunction = tuple(qualifier)

    seen: set[tuple[Constant, ...]] = set()
    rows: list[tuple[Constant, ...]] = []
    with traced_span(
        tracer, "retrieve", subject=str(subject), engine=engine, executor=executor
    ):
        for theta in evaluate_conjunction(
            kb,
            conjunction,
            engine=engine,
            max_derived_facts=max_derived_facts,
            negated=tuple(negated_qualifier),
            executor=executor,
            guard=guard,
            cache=cache,
            tracer=tracer,
            plan_cache=plan_cache,
        ):
            values = []
            for variable in free_vars:
                term = theta.apply_term(variable)
                if not is_constant(term):
                    raise SafetyError(
                        f"free variable {variable} is not bound by the query"
                    )
                values.append(term)
            row = tuple(values)
            if row not in seen:
                seen.add(row)
                rows.append(row)
        if tracer is not None:
            tracer.count("answer_rows", len(rows))
    diagnostics = guard.diagnostics() if guard is not None else None
    return RetrieveResult(
        subject=subject,
        variables=tuple(free_vars),
        rows=rows,
        diagnostics=diagnostics,
    )


def derivable(
    kb: KnowledgeBase,
    atom: Atom,
    engine: str = "seminaive",
    guard: ResourceGuard | None = None,
    cache: "ViewCache | None" = None,
) -> bool:
    """Whether some instance of *atom* is derivable from the database."""
    for _ in evaluate_conjunction(kb, (atom,), engine=engine, guard=guard, cache=cache):
        return True
    return False
