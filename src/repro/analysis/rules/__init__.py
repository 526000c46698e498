"""Rule registry for ``repro lint``.

Rules are registered here in code order; the engine runs them in this
order and reports are sorted by location, so registry order only affects
tie-breaking.  To add a rule: implement it in a module under
``repro/analysis/rules/``, import it here, append it to ``ALL_RULES``,
and document it in ``docs/static-analysis.md`` (the fixture tests in
``tests/analysis`` will remind you about the rest).
"""

from __future__ import annotations

from repro.analysis.base import Rule
from repro.analysis.rules.concurrency import (
    BlockingUnderLock,
    EventLoopDiscipline,
    LockOrderInversion,
)
from repro.analysis.rules.determinism import NoGlobalRng, NoUnseededRng
from repro.analysis.rules.hygiene import MutableDefaultArgs
from repro.analysis.rules.ledger import LedgerChargeDiscipline
from repro.analysis.rules.locks import LockDiscipline
from repro.analysis.rules.process import ProcessSafety
from repro.analysis.rules.steps import StepPurity
from repro.analysis.rules.wallclock import NoWallClock

__all__ = ["ALL_RULES", "RULES_BY_CODE", "make_rules"]

ALL_RULES: tuple[type[Rule], ...] = (
    NoGlobalRng,
    NoWallClock,
    LockDiscipline,
    LedgerChargeDiscipline,
    NoUnseededRng,
    MutableDefaultArgs,
    ProcessSafety,
    LockOrderInversion,
    BlockingUnderLock,
    EventLoopDiscipline,
    StepPurity,
)

RULES_BY_CODE: dict[str, type[Rule]] = {rule.code: rule for rule in ALL_RULES}


def make_rules(select: tuple[str, ...] = ()) -> list[Rule]:
    """Instantiate the selected rules (all of them by default)."""
    unknown = [code for code in select if code not in RULES_BY_CODE]
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES_BY_CODE))}"
        )
    codes = select or tuple(RULES_BY_CODE)
    return [RULES_BY_CODE[code]() for code in RULES_BY_CODE if code in codes]
