"""The analyzer's view of a rule base: one model, two constructors.

The passes need a uniform, *lenient* picture of a program — lenient because
the analyzer must describe broken programs that :class:`KnowledgeBase`
would refuse to load (conflicting arities, facts and rules sharing a
predicate).  :class:`ProgramModel` provides that picture and can be built
from either a parsed :class:`~repro.lang.ast.Program` (spans available,
nothing validated) or a loaded :class:`~repro.catalog.database.KnowledgeBase`
(already validated; spans only where the rules carry them).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.catalog.dependencies import DependencyGraph
from repro.lang.ast import ConstraintStatement, Program, RuleStatement
from repro.logic.builtins import is_builtin_predicate
from repro.logic.clauses import IntegrityConstraint, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.database import KnowledgeBase


@dataclass(frozen=True)
class Occurrence:
    """One use of a predicate: where, at what arity, in which role."""

    predicate: str
    arity: int
    role: str            #: "fact" | "head" | "body" | "negated" | "constraint" | "schema"
    rule: Rule | IntegrityConstraint | None = None

    @property
    def defines(self) -> bool:
        """Whether this occurrence *defines* the predicate (vs referencing it)."""
        return self.role in ("fact", "head", "schema")


@dataclass
class ProgramModel:
    """Everything the analysis passes ask about a rule base."""

    rules: list[Rule] = field(default_factory=list)
    facts: list[Rule] = field(default_factory=list)
    constraints: list[IntegrityConstraint] = field(default_factory=list)
    #: EDB predicates (declared, or inferred from stored facts) -> arity.
    edb: dict[str, int] = field(default_factory=dict)
    #: Declared IDB predicates -> arity (knowledge bases only; rule heads
    #: are collected separately so conflicting definitions stay visible).
    declared_idb: dict[str, int] = field(default_factory=dict)
    #: Stored-fact counts per EDB predicate.
    fact_counts: dict[str, int] = field(default_factory=dict)
    #: Weak reference to the knowledge base this model was built from
    #: (``from_kb`` only); read it through :attr:`source_kb`.
    _source: "weakref.ref[KnowledgeBase] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def source_kb(self) -> "KnowledgeBase | None":
        """The knowledge base this model was built from, while it is alive.

        Lets the abstract-interpretation analyses seed column domains and
        cardinalities from the stored relations instead of program text.
        Held weakly: the analysis summary cache keeps models alive, and a
        strong reference would keep every knowledge base alive with them.
        """
        return None if self._source is None else self._source()

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_program(cls, program: Program) -> "ProgramModel":
        """Model a parsed program; query statements are ignored."""
        model = cls()
        for statement in program.statements:
            if isinstance(statement, RuleStatement):
                rule = statement.rule
                if rule.is_fact():
                    model.facts.append(rule)
                    predicate = rule.head.predicate
                    model.edb.setdefault(predicate, rule.head.arity)
                    model.fact_counts[predicate] = (
                        model.fact_counts.get(predicate, 0) + 1
                    )
                else:
                    model.rules.append(rule)
            elif isinstance(statement, ConstraintStatement):
                model.constraints.append(statement.constraint)
        return model

    @classmethod
    def from_kb(cls, kb: "KnowledgeBase") -> "ProgramModel":
        """Model a loaded knowledge base (facts kept as counts only)."""
        model = cls()
        model._source = weakref.ref(kb)
        model.rules = kb.rules()
        model.constraints = kb.constraints()
        for predicate in kb.edb_predicates():
            model.edb[predicate] = kb.schema(predicate).arity
            model.fact_counts[predicate] = len(kb.relation(predicate))
        for predicate in kb.idb_predicates():
            model.declared_idb[predicate] = kb.schema(predicate).arity
        return model

    # -- derived structure -------------------------------------------------------

    @cached_property
    def graph(self) -> DependencyGraph:
        """Dependency graph over the (non-fact) rules."""
        return DependencyGraph(self.rules)

    @cached_property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by at least one rule (plus declared IDB)."""
        return frozenset(
            {rule.head.predicate for rule in self.rules} | set(self.declared_idb)
        )

    @cached_property
    def defined_predicates(self) -> frozenset[str]:
        """Predicates with any definition: facts, rules, or declarations."""
        return self.idb_predicates | frozenset(self.edb)

    @cached_property
    def referenced_predicates(self) -> frozenset[str]:
        """Predicates used in any rule body, negated atom, or constraint."""
        seen: set[str] = set()
        for rule in self.rules:
            for atom in (*rule.body, *rule.negated):
                if not atom.is_comparison():
                    seen.add(atom.predicate)
        for constraint in self.constraints:
            for atom in constraint.body:
                if not atom.is_comparison():
                    seen.add(atom.predicate)
        return frozenset(seen)

    @cached_property
    def occurrences(self) -> list[Occurrence]:
        """Every non-comparison predicate occurrence, definition-first."""
        result: list[Occurrence] = []
        for name, arity in sorted(self.edb.items()):
            result.append(Occurrence(name, arity, "schema"))
        for name, arity in sorted(self.declared_idb.items()):
            result.append(Occurrence(name, arity, "schema"))
        for fact in self.facts:
            result.append(
                Occurrence(fact.head.predicate, fact.head.arity, "fact", fact)
            )
        for rule in self.rules:
            result.append(
                Occurrence(rule.head.predicate, rule.head.arity, "head", rule)
            )
            for atom in rule.body:
                if not atom.is_comparison():
                    result.append(Occurrence(atom.predicate, atom.arity, "body", rule))
            for atom in rule.negated:
                result.append(Occurrence(atom.predicate, atom.arity, "negated", rule))
        for constraint in self.constraints:
            for atom in constraint.body:
                if not atom.is_comparison():
                    result.append(
                        Occurrence(atom.predicate, atom.arity, "constraint", constraint)
                    )
        return result

    @cached_property
    def supported_predicates(self) -> frozenset[str]:
        """Predicates that can (potentially) have a non-empty extension.

        The least fixpoint of: every EDB predicate is supported; an IDB
        predicate is supported when some defining rule's positive,
        non-comparison body atoms are all supported (negated atoms never
        *need* support — stratified negation holds over absent facts).
        A rule whose positive body is comparisons-only supports its head
        vacuously (such rules are unsafe and flagged elsewhere).
        """
        supported: set[str] = set(self.edb)
        rules = self.rules
        changed = True
        while changed:
            changed = False
            for rule in rules:
                head = rule.head.predicate
                if head in supported:
                    continue
                positives = [
                    a for a in rule.body if not a.is_comparison()
                ]
                if all(a.predicate in supported for a in positives):
                    supported.add(head)
                    changed = True
        return frozenset(supported)

    def is_builtin(self, predicate: str) -> bool:
        """Whether the predicate is a built-in comparison."""
        return is_builtin_predicate(predicate)

    def rules_for(self, predicate: str) -> list[Rule]:
        """The (non-fact) rules whose head is *predicate*, in order."""
        return [r for r in self.rules if r.head.predicate == predicate]
