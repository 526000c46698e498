"""RPR002 no-wall-clock: sampling and accounting must be time-independent.

The CostLedger *simulates* deep-model seconds precisely so that results
do not depend on the machine's clock; a stray ``time.time()`` or
``datetime.now()`` in a policy, index, or serving path reintroduces that
dependence (e.g. a time-based tie-break or TTL would make two identical
runs sample different frames).  Wall-clock reads belong in
``utils/timing.py`` (the ledger's ``measure``) and in ``benchmarks/``,
both exempted via ``[tool.repro-lint.per-directory]``.

``time.sleep`` is deliberately not flagged: a pause delays execution
without feeding a clock value into any decision.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule
from repro.analysis.imports import iter_qualified

__all__ = ["CLOCK_READS", "NoWallClock"]

#: Qualified names whose value depends on the machine's clock.
CLOCK_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClock(Rule):
    code = "RPR002"
    name = "no-wall-clock"
    rationale = (
        "sampling decisions and ledger charges must not read the clock; "
        "wall time lives in utils/timing.py and benchmarks/ only"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, qualified in iter_qualified(ctx.tree, ctx.imports):
            if qualified in CLOCK_READS:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read '{qualified}'; measure through "
                    "CostLedger.measure (utils/timing.py) or move the "
                    "code to benchmarks/",
                )
