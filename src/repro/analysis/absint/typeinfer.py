"""Type/domain inference: per-column abstract values for every predicate.

EDB predicates are seeded from their stored columns — distinct symbol ids
from the relation's interned :class:`~repro.catalog.columnar.ColumnBlock`
mirror, externalized once per distinct value (when the analysis runs over
a parsed source program, the program's facts seed the columns instead).
Rule transfer is abstract evaluation of one body: each variable's domain
is the meet of every column it joins against, constants meet the columns
they match, and comparisons refine operands (``=`` intersects, ``!=``
drops enum members, order operators narrow kinds and numeric intervals).
The head columns then follow from the head arguments, and the per-rule
results join across a predicate's rules under the shared fixpoint driver.

A meet of two non-empty column domains hitting bottom is recorded as a
:class:`TypeEvent` — that is the evidence the ``KB702`` (provably empty
join) and ``KB701`` (provably failing order comparison) diagnostics are
built from; the engine-facing summary only keeps the final domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.analysis.absint.fixpoint import Equation, solve
from repro.analysis.absint.lattice import (
    BOTTOM,
    TOP,
    ColumnDomain,
    from_constant,
    from_values,
    order_incomparable,
)
from repro.logic.atoms import Atom
from repro.logic.clauses import Rule
from repro.logic.terms import Variable, is_constant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.model import ProgramModel

__all__ = [
    "RuleTypes",
    "TypeEvent",
    "infer_types",
    "rule_types",
    "seed_types",
]

#: A predicate's abstract extension: one domain per column.
PredicateDomains = tuple[ColumnDomain, ...]


@dataclass(frozen=True)
class TypeEvent:
    """Evidence collected while abstractly evaluating one rule body.

    ``kind`` is ``empty-join`` (a shared variable's domains are disjoint),
    ``empty-const`` (a constant argument can never match its column), or
    ``order-incomparable`` (an order comparison's operands are provably
    type-incompatible, so reaching it raises).
    """

    kind: str
    atom: Atom
    subject: str          #: the variable or constant at fault, rendered
    left: str             #: domain rendering before/left of the conflict
    right: str            #: domain rendering after/right of the conflict


@dataclass
class RuleTypes:
    """The abstract evaluation of one rule body."""

    variables: dict[Variable, ColumnDomain] = field(default_factory=dict)
    #: Whether the body can (abstractly) produce any row at all.
    contributes: bool = True
    events: list[TypeEvent] = field(default_factory=list)

    def domain_of(self, term: object) -> ColumnDomain:
        if is_constant(term):
            return from_constant(term)  # type: ignore[arg-type]
        return self.variables.get(term, TOP)  # type: ignore[arg-type]


def seed_types(model: "ProgramModel") -> dict[str, PredicateDomains]:
    """EDB column domains from stored relations or program facts.

    An empty (or merely declared) EDB relation seeds ⊤ per column: its
    future contents are unknown, and claiming emptiness would turn every
    join against it into a false "provably empty" diagnostic.
    """
    seeds: dict[str, PredicateDomains] = {}
    kb = getattr(model, "source_kb", None)
    if kb is not None:
        from repro.catalog.symbols import SYMBOLS

        for predicate in sorted(model.edb):
            relation = kb.relation(predicate)
            arity = relation.arity
            if len(relation) == 0:
                seeds[predicate] = (TOP,) * arity
                continue
            block = relation.column_block()
            columns = []
            for index in range(arity):
                distinct = set(block.columns[index])
                columns.append(
                    from_values(SYMBOLS.extern(sid).value for sid in distinct)
                )
            seeds[predicate] = tuple(columns)
        return seeds

    collected: dict[str, list[set | None]] = {}
    for fact in model.facts:
        head = fact.head
        columns = collected.setdefault(
            head.predicate, [set() for _ in range(head.arity)]
        )
        for index, arg in enumerate(head.args):
            if index >= len(columns):
                break
            if columns[index] is None:
                continue
            if is_constant(arg):
                columns[index].add(arg.value)  # type: ignore[union-attr]
            else:  # non-ground "fact" (unsafe, flagged elsewhere): column unknown
                columns[index] = None
    for predicate, arity in model.edb.items():
        columns = collected.get(predicate)
        if columns is None:
            seeds[predicate] = (TOP,) * arity
        else:
            seeds[predicate] = tuple(
                TOP if values is None or not values else from_values(values)
                for values in columns
            )
    return seeds


def _meet_into(
    result: RuleTypes, variable: Variable, domain: ColumnDomain, atom: Atom
) -> None:
    """Meet a column domain into a variable, recording disjoint joins."""
    old = result.variables.get(variable)
    if old is None:
        result.variables[variable] = domain
        if domain.is_bottom:
            result.contributes = False
        return
    new = old.meet(domain)
    result.variables[variable] = new
    if new.is_bottom:
        result.contributes = False
        if not old.is_bottom and not domain.is_bottom:
            result.events.append(
                TypeEvent(
                    "empty-join", atom, str(variable),
                    old.describe(), domain.describe(),
                )
            )


def rule_types(
    rule: Rule, state: Mapping[str, PredicateDomains]
) -> RuleTypes:
    """Abstractly evaluate one rule body against the current state."""
    result = RuleTypes()

    # Positive atoms constrain variables and check constant arguments.
    for atom in rule.body:
        if atom.is_comparison():
            continue
        domains = state.get(atom.predicate)
        if domains is None:
            # Undefined predicate: empty extension (KB501's territory).
            result.contributes = False
            continue
        for column, arg in enumerate(atom.args):
            domain = domains[column] if column < len(domains) else TOP
            if is_constant(arg):
                if domain.meet(from_constant(arg)).is_bottom:
                    result.contributes = False
                    if not domain.is_bottom:
                        result.events.append(
                            TypeEvent(
                                "empty-const", atom, str(arg),
                                domain.describe(), from_constant(arg).describe(),
                            )
                        )
            else:
                _meet_into(result, arg, domain, atom)

    # Comparisons refine (and order comparisons are checked for provable
    # incompatibility — the evidence behind KB701).
    for atom in rule.body:
        if not atom.is_comparison():
            continue
        op = atom.predicate
        left, right = atom.args
        left_domain = result.domain_of(left)
        right_domain = result.domain_of(right)
        if op == "=":
            met = left_domain.meet(right_domain)
            if not is_constant(left):
                result.variables[left] = met  # type: ignore[index]
            if not is_constant(right):
                result.variables[right] = met  # type: ignore[index]
            if met.is_bottom:
                result.contributes = False
        elif op == "!=":
            if is_constant(right) and not is_constant(left):
                result.variables[left] = left_domain.without_value(right)  # type: ignore[index]
            elif is_constant(left) and not is_constant(right):
                result.variables[right] = right_domain.without_value(left)  # type: ignore[index]
        else:
            if order_incomparable(left_domain, right_domain):
                result.events.append(
                    TypeEvent(
                        "order-incomparable", atom, op,
                        left_domain.describe(), right_domain.describe(),
                    )
                )
                result.contributes = False
            if not is_constant(left):
                result.variables[left] = left_domain.restrict_order(op, right_domain)  # type: ignore[index]
            if not is_constant(right):
                flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                result.variables[right] = right_domain.restrict_order(  # type: ignore[index]
                    flipped, left_domain
                )
    for domain in result.variables.values():
        if domain.is_bottom:
            result.contributes = False
    return result


def _head_domains(rule: Rule, result: RuleTypes) -> PredicateDomains:
    if not result.contributes:
        return tuple(BOTTOM for _ in rule.head.args)
    return tuple(result.domain_of(arg) for arg in rule.head.args)


def _join_domains(old: PredicateDomains, new: PredicateDomains) -> PredicateDomains:
    if len(old) != len(new):  # conflicting arity definitions (KB602): lenient
        width = min(len(old), len(new))
        old, new = old[:width], new[:width]
    return tuple(a.join(b) for a, b in zip(old, new))


def infer_types(model: "ProgramModel") -> dict[str, PredicateDomains]:
    """Least-fixpoint column domains for every predicate in the model."""
    initial: dict[str, PredicateDomains] = dict(seed_types(model))
    for predicate, arity in model.declared_idb.items():
        initial.setdefault(predicate, (BOTTOM,) * arity)
    for rule in model.rules:
        initial.setdefault(rule.head.predicate, (BOTTOM,) * rule.head.arity)

    equations: list[Equation] = []
    for rule in model.rules:
        deps = tuple(
            sorted(
                {
                    atom.predicate
                    for atom in rule.body
                    if not atom.is_comparison() and atom.predicate in initial
                }
            )
        )

        def transfer(
            state: Mapping[str, object], rule: Rule = rule
        ) -> PredicateDomains:
            return _head_domains(rule, rule_types(rule, state))  # type: ignore[arg-type]

        equations.append(Equation(rule.head.predicate, deps, transfer))

    def join(old: object, new: object) -> PredicateDomains:
        return _join_domains(old, new)  # type: ignore[arg-type]

    return solve(equations, initial, join)  # type: ignore[return-value]
