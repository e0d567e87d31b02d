"""Deductive engine: data-query (retrieve) evaluation.

Two interchangeable engines — semi-naive bottom-up and top-down with
call-pattern tabling — behind one public API (:func:`retrieve`,
:func:`evaluate_conjunction`).  The bottom-up engine offers two executors
(the ``executor`` knob): the interned kernel executor of
:mod:`repro.engine.kernels` (default), which lowers the logical plans of
:mod:`repro.engine.plan` to symbol-id space, and the tuple-at-a-time
nested-loop reference executor of :mod:`repro.engine.joins`, kept as the
differential oracle."""

from repro.engine.evaluate import (
    ENGINES,
    RetrieveResult,
    derivable,
    evaluate_conjunction,
    retrieve,
)
from repro.engine.guard import (
    MODES,
    CancellationToken,
    Diagnostics,
    ResourceGuard,
)
from repro.engine.plan import (
    EXECUTORS,
    ConjunctionPlan,
    RulePlan,
    compile_conjunction,
    compile_rule,
)
from repro.engine.incremental import MaterializedDatabase
from repro.engine.kernels import (
    ConjunctionKernel,
    IntTable,
    RuleKernel,
    compile_conjunction_kernel,
    compile_rule_kernel,
)
from repro.engine.magic import MagicProgram, magic_conjunction, magic_rewrite
from repro.engine.provenance import (
    Explanation,
    ProofNode,
    explain,
    explain_all,
    explain_statement,
)
from repro.engine.safety import check_rule_safety, safety_problems
from repro.engine.seminaive import SemiNaiveEngine
from repro.engine.topdown import TopDownEngine
from repro.engine.viewcache import CacheStats, ViewCache

__all__ = [
    "ENGINES",
    "EXECUTORS",
    "MODES",
    "CancellationToken",
    "Diagnostics",
    "ResourceGuard",
    "ConjunctionPlan",
    "RulePlan",
    "compile_conjunction",
    "compile_rule",
    "ConjunctionKernel",
    "IntTable",
    "RuleKernel",
    "compile_conjunction_kernel",
    "compile_rule_kernel",
    "RetrieveResult",
    "derivable",
    "evaluate_conjunction",
    "retrieve",
    "MaterializedDatabase",
    "MagicProgram",
    "magic_conjunction",
    "magic_rewrite",
    "Explanation",
    "ProofNode",
    "explain",
    "explain_all",
    "explain_statement",
    "check_rule_safety",
    "safety_problems",
    "SemiNaiveEngine",
    "TopDownEngine",
    "CacheStats",
    "ViewCache",
]
