"""Generic conjunction solving: the tuple-at-a-time reference executor.

Given a *resolver* — a callback that, for a positive atom (with the current
bindings already applied), yields substitutions extending it against some
fact source — :func:`join_conjunction` enumerates all bindings satisfying a
conjunction.  Comparison atoms are evaluated inline: ``=`` may bind a
variable; order comparisons filter once ground.  Conjuncts are greedily
reordered so bound atoms run first (index-friendly) and comparisons run as
soon as they are ground.

This is the *reference* executor: a depth-first nested-loops join, one
substitution per binding.  The top-down engine and other resolver-based
callers (provenance, incremental maintenance) are built on it, and the
bottom-up engine keeps it as the ``executor="nested"`` differential
oracle.  The integer kernels of :mod:`repro.engine.kernels` are the fast
path for bottom-up evaluation; :func:`order_conjuncts` and
:func:`relation_cost_estimator` are shared by both.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.errors import SafetyError
from repro.logic.atoms import Atom
from repro.logic.builtins import evaluate_comparison
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable, is_constant, is_variable
from repro.logic.unify import unify_terms

#: A resolver maps a (partially instantiated) positive atom to candidate
#: substitutions that make it true, each already composed over the input.
Resolver = Callable[[Atom, Substitution], Iterator[Substitution]]

#: A cost estimator: expected number of matching rows for an atom, given
#: which of its variables are already bound.  ``None`` = unknown predicate.
CostEstimator = Callable[[Atom, set[Variable]], float | None]


def _boundness(atom: Atom, bound: set[Variable]) -> float:
    """Fraction of the atom's arguments that are constants or bound vars."""
    if not atom.args:
        return 1.0
    score = 0
    for arg in atom.args:
        if is_constant(arg) or arg in bound:
            score += 1
    return score / len(atom.args)


def order_conjuncts(
    conjuncts: Sequence[Atom],
    initially_bound: set[Variable] | None = None,
    estimate: CostEstimator | None = None,
) -> list[Atom]:
    """Greedy join order: cheapest positive atom next; comparisons ASAP.

    Without an estimator, "cheapest" is "most bound" (fraction of arguments
    that are constants or already-bound variables).  With an estimator, it
    is the lowest expected row count — a small relation beats a large one
    even at equal boundness, the classic cardinality-aware improvement.

    Raises :class:`SafetyError` if an order comparison can never become
    ground (the conjunction is unsafe).
    """
    remaining = list(conjuncts)
    bound: set[Variable] = set(initially_bound or ())
    ordered: list[Atom] = []
    while remaining:
        # 1. Any comparison that is ready?  '=' is ready when one side is
        #    bound/constant; other comparisons when both sides are.
        ready = None
        for atom in remaining:
            if not atom.is_comparison():
                continue
            sides_bound = [
                is_constant(arg) or arg in bound for arg in atom.args
            ]
            if atom.predicate == "=" and any(sides_bound):
                ready = atom
                break
            if all(sides_bound):
                ready = atom
                break
        if ready is None:
            # 2. The cheapest positive atom.
            positives = [a for a in remaining if not a.is_comparison()]
            if positives:
                if estimate is not None:
                    def cost(atom: Atom) -> tuple:
                        estimated = estimate(atom, bound)
                        if estimated is None:
                            estimated = float("inf")
                        return (estimated, -_boundness(atom, bound), remaining.index(atom))

                    ready = min(positives, key=cost)
                else:
                    ready = max(
                        positives,
                        key=lambda a: (_boundness(a, bound), -remaining.index(a)),
                    )
            else:
                # Only comparisons left and none ready.
                leftovers = " and ".join(str(a) for a in remaining)
                raise SafetyError(f"comparisons can never become ground: {leftovers}")
        remaining.remove(ready)
        ordered.append(ready)
        bound.update(ready.variables())
    return ordered


def relation_cost_estimator(relation_for) -> CostEstimator:
    """A cost estimator from a ``predicate -> Relation | None`` accessor.

    Expected rows = relation size divided by the distinct count of each
    bound column (the standard independence assumption).
    """

    def estimate(atom: Atom, bound: set[Variable]) -> float | None:
        relation = relation_for(atom.predicate)
        if relation is None:
            return None
        size = float(len(relation))
        if size == 0:
            return 0.0
        for column, arg in enumerate(atom.args):
            if is_constant(arg) or arg in bound:
                distinct = relation.distinct_count(column)
                if distinct:
                    size /= distinct
        return max(size, 0.001)

    return estimate


def solve_comparison(atom: Atom, theta: Substitution) -> Iterator[Substitution]:
    """Solve one comparison conjunct under the current bindings.

    ``=`` binds an unbound side; ground comparisons filter.  A non-ground
    order comparison raises :class:`SafetyError` (ordering should have
    prevented it).
    """
    instantiated = theta.apply(atom)
    left, right = instantiated.args
    if instantiated.predicate == "=":
        extended = unify_terms(left, right, theta)
        if extended is not None:
            yield extended
        return
    if not instantiated.is_ground():
        raise SafetyError(f"comparison {instantiated} is not ground at evaluation time")
    if evaluate_comparison(instantiated):
        yield theta


def join_conjunction(
    resolver: Resolver,
    conjuncts: Sequence[Atom],
    theta: Substitution | None = None,
    reorder: bool = True,
    estimate: CostEstimator | None = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions satisfying every conjunct.

    The enumeration is a depth-first nested-loops join; the resolver is
    expected to use indexes for atoms with bound arguments.  ``estimate``
    (see :func:`relation_cost_estimator`) switches the join order from
    boundness-greedy to cardinality-aware.
    """
    start = theta if theta is not None else Substitution.EMPTY
    ordered = (
        order_conjuncts(conjuncts, set(start.domain()), estimate=estimate)
        if reorder
        else list(conjuncts)
    )

    def recurse(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(ordered):
            yield current
            return
        atom = ordered[index]
        if atom.is_comparison():
            for extended in solve_comparison(atom, current):
                yield from recurse(index + 1, extended)
            return
        for extended in resolver(current.apply(atom), current):
            yield from recurse(index + 1, extended)

    yield from recurse(0, start)


def bind_row(atom: Atom, row: Sequence[object], theta: Substitution) -> Substitution | None:
    """Extend *theta* so the atom's arguments match a ground row.

    *atom* should already have *theta* applied.  Returns ``None`` when a
    constant argument disagrees with the row.
    """
    current = theta
    for arg, value in zip(atom.args, row):
        if is_variable(arg):
            applied = current.apply_term(arg)
            if is_variable(applied):
                current = current.bind(applied, value)  # type: ignore[arg-type]
            elif applied != value:
                return None
        elif arg != value:
            return None
    return current
