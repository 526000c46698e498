"""Hygiene rule: RPR006 mutable-default-args.

RPR006 is the classic Python trap with a project-specific sting: a
mutable default (``detections={}``) shared across calls is exactly the
kind of cross-run state leak that the DetectionStore's content-keyed
design exists to prevent — results would depend on call order.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule

__all__ = ["MutableDefaultArgs"]

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _MUTABLE_CALLS
    return False


class MutableDefaultArgs(Rule):
    code = "RPR006"
    name = "mutable-default-args"
    rationale = (
        "a mutable default is shared across calls, leaking state between "
        "runs that must be independent"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if _is_mutable_literal(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in '{label}'; default "
                        "to None and construct inside the function",
                    )

