"""RPR004 ledger-charge-discipline: no silent model-invocation paths.

The cost model ("cache hits are never charged; every real invocation is
charged exactly ``cost_per_frame``") is enforced in exactly one place:
:class:`repro.inference.engine.InferenceEngine`.  A direct
``model.detect(frame)`` / ``model.detect_many(frames)`` call site
bypasses the detection store *and* the ledger, so its cost silently
vanishes from every Fig. 5/6-style result.

The rule flags any ``.detect`` / ``.detect_many`` call, with two
structural exemptions:

* call sites whose enclosing function is itself named ``detect`` or
  ``detect_many`` — a model wrapper delegating to its base model is
  model-internal, not a pipeline path;
* directories configured out via ``[tool.repro-lint.per-directory]``
  (``src/repro/models`` implements detection, ``src/repro/inference``
  *is* the blessed path).

Anything else — a new baseline, a benchmark — must go through an engine
or carry a justified ``# repro: noqa[RPR004]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule

__all__ = ["LedgerChargeDiscipline"]

_DETECT_NAMES = frozenset({"detect", "detect_many"})


class LedgerChargeDiscipline(Rule):
    code = "RPR004"
    name = "ledger-charge-discipline"
    rationale = (
        "every model.detect/detect_many call must go through "
        "InferenceEngine (or charge a CostLedger) so cache hits and "
        "invocations are accounted exactly"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._scan(ctx, ctx.tree, enclosing_detect=False)

    def _scan(
        self, ctx: ModuleContext, node: ast.AST, enclosing_detect: bool
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(
                    ctx, child, enclosing_detect=child.name in _DETECT_NAMES
                )
                continue
            if (
                not enclosing_detect
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _DETECT_NAMES
            ):
                receiver = ast.unparse(child.func.value)
                yield self.finding(
                    ctx,
                    child,
                    f"direct detection call '{receiver}.{child.func.attr}"
                    "(...)' bypasses the DetectionStore and the "
                    "CostLedger; route it through "
                    "InferenceEngine.detect_wave/detect_one",
                )
            yield from self._scan(ctx, child, enclosing_detect)
