"""repro.analysis — project-specific static analysis (``repro lint``).

An AST-based lint framework plus ten rules that prove, at every call
site and on every PR, the invariants the serving and inference layers
promise at runtime:

=======  ========================  =============================================
Code     Name                      Invariant
=======  ========================  =============================================
RPR001   no-global-rng             randomness flows through seeded Generators
RPR002   no-wall-clock             decisions and charges are time-independent
RPR003   lock-discipline           guarded attributes stay under their lock
RPR004   ledger-charge-discipline  no detection path bypasses the CostLedger
RPR005   no-unseeded-rng           default_rng() always takes an explicit seed
RPR006   mutable-default-args      no state shared across calls via defaults
RPR008   process-safety            spawned workers only get picklable state
RPR009   lock-order-inversion      the lock-acquisition-order graph is acyclic
RPR010   blocking-under-lock       no registered lock is held across blocking I/O
RPR011   event-loop-discipline     coroutines never reach blocking calls inline
=======  ========================  =============================================

RPR001-RPR006 and RPR008 check one module at a time.  RPR009-RPR011 are
*interprocedural*: the engine builds per-function lock summaries and a
project-wide call graph (``repro.analysis.summaries``), propagates
acquired-lock and blocking-operation sets to a fixpoint
(``repro.analysis.lockgraph``), and reports witness paths through the
call chain.  The static acquisition-order graph is additionally
cross-checked at runtime by the lock witness
(``repro.analysis.witness``) when tests run under ``REPRO_WITNESS=1``.

See ``docs/static-analysis.md`` for the rule catalogue, the
``# repro: noqa[CODE] justification`` suppression syntax, and how to add
a rule.  This package is pure stdlib — it must stay importable (and
fast) without numpy so the CI lint gate can run before dependencies are
installed.
"""

from repro.analysis.base import ENGINE_CODE, Finding, ModuleContext, ProjectRule, Rule
from repro.analysis.cli import run_lint
from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import Report, lint_paths, lint_source
from repro.analysis.project import ProjectContext
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE, make_rules

__all__ = [
    "ALL_RULES",
    "ENGINE_CODE",
    "Finding",
    "LintConfig",
    "ModuleContext",
    "ProjectContext",
    "ProjectRule",
    "Report",
    "Rule",
    "RULES_BY_CODE",
    "lint_paths",
    "lint_source",
    "load_config",
    "make_rules",
    "run_lint",
]
