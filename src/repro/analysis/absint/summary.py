"""The engine-facing product of the abstract interpretation.

:func:`summarize` runs all three domains — binding modes, type/domain
inference, cardinality estimation — over one :class:`ProgramModel` and
bundles the results into an :class:`AnalysisSummary`.  :func:`summary_for`
is the cached entry point the engines use: summaries are keyed on the
knowledge base's ``(rules_version, EDB version vector)`` fingerprint, so a
repeat query against an unchanged knowledge base pays a dictionary lookup,
and any rule edit or fact mutation invalidates exactly the stale summary.
The cache holds the summary per knowledge base via a weak reference — a
dropped knowledge base takes its summary with it.

Whether the *planner* consumes summaries is controlled like the columnar
backend flag: the ``REPRO_PLAN_ANALYSIS`` environment variable is parsed
once (default: enabled), with :func:`configure_planning` /
:func:`planning_override` as the programmatic/test overrides.  Turning the
flag off reverts join ordering and kernel specialization to the purely
syntactic behaviour; lint and ``explain`` run the analysis regardless.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.analysis.absint.cardinality import (
    CardEstimate,
    infer_cardinalities,
    recursion_profile,
)
from repro.analysis.absint.lattice import TOP, ColumnDomain
from repro.analysis.absint.modes import ModeTable, infer_modes
from repro.analysis.absint.typeinfer import infer_types
from repro.analysis.model import ProgramModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.database import KnowledgeBase

__all__ = [
    "AnalysisSummary",
    "cache_info",
    "configure_planning",
    "fingerprint_of",
    "planning_enabled",
    "planning_override",
    "reset_cache",
    "summarize",
    "summary_for",
]

#: Cache fingerprint: ``(rules_version, ((predicate, version), ...))``.
Fingerprint = tuple[int, tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class AnalysisSummary:
    """Everything the planner, magic rewrite, and kernels ask for."""

    fingerprint: Fingerprint | None
    modes: Mapping[str, frozenset[str]]
    mode_table: ModeTable
    types: Mapping[str, tuple[ColumnDomain, ...]]
    cards: Mapping[str, CardEstimate]
    recursion: Mapping[str, str]
    model: ProgramModel = field(repr=False, compare=False)

    # -- lookups -----------------------------------------------------------------

    def column_domains(self, predicate: str) -> tuple[ColumnDomain, ...] | None:
        return self.types.get(predicate)

    def column_domain(self, predicate: str, column: int) -> ColumnDomain:
        domains = self.types.get(predicate)
        if domains is None or column >= len(domains):
            return TOP
        return domains[column]

    def estimated_rows(self, predicate: str) -> float | None:
        estimate = self.cards.get(predicate)
        return None if estimate is None else estimate.rows

    def distinct_estimates(self, predicate: str) -> tuple[float, ...] | None:
        estimate = self.cards.get(predicate)
        return None if estimate is None else estimate.distinct

    def adornments(self, predicate: str) -> frozenset[str]:
        return self.modes.get(predicate, frozenset())


def fingerprint_of(kb: "KnowledgeBase") -> Fingerprint:
    """The summary cache key: rules version + EDB relation versions."""
    return (
        kb.rules_version,
        tuple(
            sorted(
                (predicate, kb.relation(predicate).version)
                for predicate in kb.edb_predicates()
            )
        ),
    )


def summarize(
    model: ProgramModel, fingerprint: Fingerprint | None = None
) -> AnalysisSummary:
    """Run all three abstract domains over one model (uncached)."""
    if fingerprint is None and model.source_kb is not None:
        fingerprint = fingerprint_of(model.source_kb)
    table = ModeTable(model.rules)
    modes = infer_modes(model, table)
    types = infer_types(model)
    cards = infer_cardinalities(model, types)
    return AnalysisSummary(
        fingerprint=fingerprint,
        modes=modes,
        mode_table=table,
        types=types,
        cards=cards,
        recursion=recursion_profile(model),
        model=model,
    )


# -- per-knowledge-base cache ---------------------------------------------------

_cache: "weakref.WeakKeyDictionary[KnowledgeBase, AnalysisSummary]" = (
    weakref.WeakKeyDictionary()
)
_hits = 0
_misses = 0


def summary_for(kb: "KnowledgeBase") -> AnalysisSummary:
    """The (cached) analysis summary for a knowledge base.

    A cached summary is reused only while its fingerprint still matches —
    any rule change bumps ``rules_version``, any fact change bumps the
    owning relation's ``version``, and either forces a fresh analysis.
    """
    global _hits, _misses
    fingerprint = fingerprint_of(kb)
    cached = _cache.get(kb)
    if cached is not None and cached.fingerprint == fingerprint:
        _hits += 1
        return cached
    _misses += 1
    summary = summarize(ProgramModel.from_kb(kb), fingerprint)
    _cache[kb] = summary
    return summary


def cache_info() -> dict[str, int]:
    """Hit/miss counters (the cached-hit benchmark reads these)."""
    return {"hits": _hits, "misses": _misses, "entries": len(_cache)}


def reset_cache() -> None:
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0


# -- planner feature flag -------------------------------------------------------

_planning: bool | None = None


def _planning_from_env() -> bool:
    flag = os.environ.get("REPRO_PLAN_ANALYSIS", "").lower()
    return flag not in ("off", "0", "false", "no")


def planning_enabled() -> bool:
    """Whether the planner consumes analysis summaries (default: yes)."""
    global _planning
    if _planning is None:
        _planning = _planning_from_env()
    return _planning


def configure_planning(enabled: bool | None) -> None:
    """Override the flag programmatically; ``None`` re-reads the env."""
    global _planning
    _planning = enabled


@contextmanager
def planning_override(enabled: bool | None):
    """Context manager: :func:`configure_planning` scoped to a block."""
    global _planning
    saved = _planning
    try:
        configure_planning(enabled)
        yield
    finally:
        _planning = saved
