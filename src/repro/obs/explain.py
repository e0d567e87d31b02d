"""Pre-execution plan rendering: what a retrieve *would* do.

``explain_plan`` compiles the same logical plans the engines cache at
evaluation time (:mod:`repro.engine.plan`, lowered by
:mod:`repro.engine.kernels`) and renders them — per stratum, per rule, per
step — as text or JSON, *before* running anything.  Join
orders and row estimates come from the shared cardinality estimator over
the stored EDB relations; IDB sizes are unknown pre-execution, so the
rendering is the cold-start plan (the engines re-estimate against
materialised IDB relations as strata complete).

Engine coverage:

* ``seminaive`` — the full picture: evaluation strata of the relevant IDB
  predicates, one compiled plan per rule, the query-conjunction plan, and
  which body positions get delta-rewritten in recursive strata;
* ``magic`` — the magic-sets rewrite is performed for real (same code
  path as evaluation) and the *rewritten* program's strata and plans are
  shown, plus rewrite statistics;
* ``topdown`` — rules and the greedy conjunction order; the engine is
  tuple-at-a-time and tabling is demand-driven, so there is no kernel
  plan to print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.database import KnowledgeBase
from repro.engine.joins import order_conjuncts, relation_cost_estimator
from repro.engine.plan import compile_conjunction, resolve_executor
from repro.errors import EngineError, SafetyError
from repro.lang.ast import RetrieveStatement
from repro.logic.atoms import Atom

#: Engine names explain_plan understands (mirrors ``evaluate.ENGINES``).
_ENGINES = ("seminaive", "topdown", "magic")


@dataclass
class RuleExplanation:
    """One rule's compiled plan (or join order, for the nested executor)."""

    rule: str
    steps: list[str]
    #: Body positions that reference the rule's own stratum — each gets a
    #: delta-rewritten plan variant during semi-naive iteration.
    delta_positions: list[int] = field(default_factory=list)

    def as_dict(self) -> dict:
        entry: dict[str, object] = {"rule": self.rule, "steps": list(self.steps)}
        if self.delta_positions:
            entry["delta_positions"] = list(self.delta_positions)
        return entry


@dataclass
class StratumExplanation:
    """One evaluation stratum: its predicates and their rule plans."""

    index: int
    predicates: list[str]
    recursive: bool
    rules: list[RuleExplanation]

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "predicates": list(self.predicates),
            "recursive": self.recursive,
            "rules": [rule.as_dict() for rule in self.rules],
        }


@dataclass
class PredicateAnalysis:
    """Inferred facts about one IDB predicate (from the absint summary)."""

    predicate: str
    modes: list[str]
    columns: list[str]
    rows: str
    recursion: str | None = None

    def as_dict(self) -> dict:
        entry: dict[str, object] = {
            "predicate": self.predicate,
            "modes": list(self.modes),
            "columns": list(self.columns),
            "rows": self.rows,
        }
        if self.recursion is not None:
            entry["recursion"] = self.recursion
        return entry

    def format(self) -> str:
        parts = []
        if self.modes:
            parts.append("modes " + ", ".join(self.modes))
        parts.append("cols (" + ", ".join(self.columns) + ")")
        parts.append(self.rows)
        if self.recursion is not None:
            parts.append(f"recursion: {self.recursion}")
        return f"{self.predicate}: " + "; ".join(parts)


@dataclass
class QueryExplanation:
    """The full pre-execution story of one retrieve statement."""

    statement: str
    engine: str
    executor: str
    strata: list[StratumExplanation]
    query_steps: list[str]
    answer_variables: list[str]
    notes: list[str] = field(default_factory=list)
    analysis: list[PredicateAnalysis] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "statement": self.statement,
            "engine": self.engine,
            "executor": self.executor,
            "strata": [stratum.as_dict() for stratum in self.strata],
            "query_steps": list(self.query_steps),
            "answer_variables": list(self.answer_variables),
            "notes": list(self.notes),
            "analysis": [entry.as_dict() for entry in self.analysis],
        }

    def format(self) -> str:
        lines = [
            f"explain {self.statement}",
            f"engine: {self.engine}   executor: {self.executor}",
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.analysis:
            lines.append("analysis (binding modes / column domains / cardinality):")
            for entry in self.analysis:
                lines.append(f"  {entry.format()}")
        for stratum in self.strata:
            recursion = " (recursive)" if stratum.recursive else ""
            lines.append(
                f"stratum {stratum.index}{recursion}: "
                + ", ".join(stratum.predicates)
            )
            for rule in stratum.rules:
                lines.append(f"  rule {rule.rule}")
                for number, step in enumerate(rule.steps, 1):
                    lines.append(f"    {number}. {step}")
                if rule.delta_positions:
                    positions = ", ".join(str(p) for p in rule.delta_positions)
                    lines.append(f"    delta rewritings at body positions: {positions}")
        lines.append("query conjunction:")
        for number, step in enumerate(self.query_steps, 1):
            lines.append(f"  {number}. {step}")
        if self.answer_variables:
            lines.append("answers bind: " + ", ".join(self.answer_variables))
        return "\n".join(lines)


def _as_statement(statement: "RetrieveStatement | str") -> RetrieveStatement:
    if isinstance(statement, RetrieveStatement):
        return statement
    from repro.lang.parser import parse_statement

    text = statement.strip().rstrip(".")
    if not text.startswith("retrieve"):
        text = "retrieve " + text
    parsed = parse_statement(text)
    if not isinstance(parsed, RetrieveStatement):
        raise EngineError(f"explain covers retrieve statements, got: {parsed!r}")
    return parsed


def _cold_estimator(kb: KnowledgeBase, summary=None):
    """The pre-execution estimator: EDB sizes known, IDB sizes unknown.

    With an analysis *summary*, the inferred cardinality estimates fill the
    IDB gap — the same estimator the semi-naive engine plans with.
    """

    def relation_for(predicate: str):
        return kb.relation(predicate) if kb.is_edb(predicate) else None

    if summary is not None:
        from repro.engine.plan import analysis_estimator

        return analysis_estimator(relation_for, summary)
    return relation_cost_estimator(relation_for)


def _relevant_idb(kb: KnowledgeBase, conjuncts) -> set[str]:
    """The IDB predicates a conjunction depends on (directly or below)."""
    graph = kb.dependency_graph()
    wanted = {
        a.predicate
        for a in conjuncts
        if not a.is_comparison() and kb.is_idb(a.predicate)
    }
    relevant = set(wanted)
    for predicate in wanted:
        relevant.update(p for p in graph.dependencies(predicate) if kb.is_idb(p))
    return relevant


def _analysis_entries(summary, predicates) -> list[PredicateAnalysis]:
    """Render the summary's inferred facts for the relevant predicates."""
    entries = []
    for predicate in sorted(predicates):
        domains = summary.column_domains(predicate) or ()
        estimate = summary.cards.get(predicate)
        entries.append(
            PredicateAnalysis(
                predicate=predicate,
                modes=sorted(summary.adornments(predicate)),
                columns=[domain.describe() for domain in domains],
                rows="rows unknown" if estimate is None else estimate.describe(),
                recursion=summary.recursion.get(predicate),
            )
        )
    return entries


def _steps_for(conjuncts, negated, executor, estimate) -> list[str]:
    """Step lines for one conjunction under the chosen executor."""
    if executor == "kernel":
        from repro.engine.kernels import compile_conjunction_kernel

        return list(
            compile_conjunction_kernel(conjuncts, negated, estimate=estimate).described
        )
    ordered = order_conjuncts(conjuncts, estimate=estimate)
    steps = [f"nested_loop {atom}" for atom in ordered]
    steps.extend(f"check not {atom}" for atom in negated)
    return steps


def _strata_for(
    kb: KnowledgeBase, conjuncts, executor: str, estimate
) -> list[StratumExplanation]:
    """Evaluation strata for the IDB predicates the conjunction needs."""
    graph = kb.dependency_graph()
    relevant = _relevant_idb(kb, conjuncts)
    strata: list[StratumExplanation] = []
    for stratum in graph.evaluation_strata(set(kb.idb_predicates())):
        members = sorted(set(stratum) & relevant)
        if not members:
            continue
        stratum_set = set(stratum)
        rules: list[RuleExplanation] = []
        recursive = False
        for predicate in members:
            for rule in kb.rules_for(predicate):
                delta_positions = [
                    i for i, atom in enumerate(rule.body)
                    if atom.predicate in stratum_set
                ]
                if delta_positions:
                    recursive = True
                steps = _steps_for(rule.body, rule.negated, executor, estimate)
                rules.append(RuleExplanation(str(rule), steps, delta_positions))
        strata.append(StratumExplanation(len(strata) + 1, members, recursive, rules))
    return strata


def explain_plan(
    kb: KnowledgeBase,
    statement: "RetrieveStatement | str",
    engine: str = "seminaive",
    executor: str | None = None,
) -> QueryExplanation:
    """Render the evaluation plan of a retrieve statement without running it.

    *statement* is a parsed :class:`RetrieveStatement` or its source text
    (a bare conjunction is accepted and wrapped in ``retrieve``).
    """
    if engine not in _ENGINES:
        raise EngineError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    executor = resolve_executor(executor)
    parsed = _as_statement(statement)
    # Mirror retrieve's subject validation: explaining a statement that
    # execution would reject must fail the same way.
    if parsed.subject.is_comparison():
        raise EngineError("the subject of retrieve may not be a comparison")
    if kb.has_predicate(parsed.subject.predicate):
        kb.schema(parsed.subject.predicate).check_arity(parsed.subject.arity)
    else:
        qualifier_vars = {
            v for atom in parsed.qualifier for v in atom.variables()
        }
        missing = [
            v for v in parsed.subject.variables() if v not in qualifier_vars
        ]
        if missing:
            names = ", ".join(v.name for v in missing)
            raise SafetyError(
                f"ad-hoc subject variable(s) {names} do not occur in the qualifier"
            )
    conjuncts: list[Atom] = [parsed.subject, *parsed.qualifier]
    negated = list(parsed.negated_qualifier)
    # Explain always renders the analysis; the planner flag only controls
    # whether the *estimator* consumes it (mirroring actual evaluation).
    from repro.analysis.absint.summary import planning_enabled, summary_for

    summary = summary_for(kb)
    if planning_enabled():
        estimate = _cold_estimator(kb, summary)
        notes = [
            "row estimates use stored EDB sizes; "
            "IDB sizes come from the analysis cardinality estimates"
        ]
    else:
        estimate = _cold_estimator(kb)
        notes = [
            "row estimates use stored EDB sizes; "
            "IDB sizes are unknown before execution"
        ]
    analysis = _analysis_entries(summary, _relevant_idb(kb, conjuncts + negated))

    if engine == "magic":
        from repro.engine.magic import magic_rewrite

        program = magic_rewrite(kb, conjuncts)  # negation raises EngineError here
        notes.append(
            f"magic-sets rewrite: {program.adorned_predicates} adorned call patterns, "
            f"{program.magic_rules} magic rules"
        )
        inner_estimate = _cold_estimator(program.kb)
        strata = _strata_for(program.kb, [program.goal], executor, inner_estimate)
        query_steps = _steps_for([program.goal], [], executor, inner_estimate)
        answer_variables = [str(v) for v in program.goal.variables()]
    elif engine == "topdown":
        notes.append(
            "top-down evaluation tables IDB call patterns on demand; "
            "the conjunction below is the greedy resolution order"
        )
        strata = _strata_for(kb, conjuncts + negated, "nested", estimate)
        query_steps = _steps_for(conjuncts, negated, "nested", estimate)
        seen: list[str] = []
        for atom in conjuncts:
            for variable in atom.variables():
                if str(variable) not in seen:
                    seen.append(str(variable))
        answer_variables = seen
    else:
        strata = _strata_for(kb, conjuncts + negated, executor, estimate)
        query_steps = _steps_for(conjuncts, negated, executor, estimate)
        plan = compile_conjunction(conjuncts, negated, estimate=estimate)
        answer_variables = [str(v) for v in plan.schema]

    return QueryExplanation(
        statement=str(parsed),
        engine=engine,
        executor=executor,
        strata=strata,
        query_steps=query_steps,
        answer_variables=answer_variables,
        notes=notes,
        analysis=analysis,
    )
