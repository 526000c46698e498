"""Determinism rules: RPR001 no-global-rng, RPR005 no-unseeded-rng.

The reproduction's headline guarantee — sampling decisions, detector
noise, and workload generation are bit-identical across caches and
repeat runs — holds because every stochastic component draws
from an explicitly seeded ``numpy.random.Generator`` threaded through
:mod:`repro.utils.rng`.  Module-level RNG (``np.random.rand``,
``random.random``) and unseeded generators both break that chain
silently: results stay plausible while ceasing to be reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Finding, ModuleContext, Rule
from repro.analysis.imports import ImportMap, iter_qualified

__all__ = ["NoGlobalRng", "NoUnseededRng", "is_unseeded_default_rng"]

#: ``numpy.random`` members that are deterministic plumbing, not
#: hidden-global-state draws.
_NUMPY_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)


def _is_global_rng(qualified: str) -> bool:
    if qualified.startswith("numpy.random."):
        member = qualified.split(".")[2]
        return member not in _NUMPY_RANDOM_ALLOWED
    # The stdlib ``random`` module is forbidden wholesale: even a seeded
    # ``random.Random`` bypasses the project's Generator plumbing.
    return qualified == "random" or qualified.startswith("random.")


class NoGlobalRng(Rule):
    code = "RPR001"
    name = "no-global-rng"
    rationale = (
        "all randomness must flow through a seeded numpy Generator "
        "parameter; module-level RNG state makes runs order-dependent"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, qualified in iter_qualified(ctx.tree, ctx.imports):
            if qualified in ("numpy.random", "random"):
                continue
            if _is_global_rng(qualified):
                yield self.finding(
                    ctx,
                    node,
                    f"module-level RNG '{qualified}'; thread a seeded "
                    "numpy.random.Generator (see repro.utils.rng) instead",
                )


def is_unseeded_default_rng(node: ast.AST, imports: ImportMap) -> bool:
    """True when ``node`` calls ``default_rng`` without an explicit seed."""
    if not isinstance(node, ast.Call):
        return False
    if imports.resolve(node.func) != "numpy.random.default_rng":
        return False
    seed = node.args[0] if node.args else None
    if seed is None:
        for keyword in node.keywords:
            if keyword.arg == "seed":
                seed = keyword.value
    return seed is None or (
        isinstance(seed, ast.Constant) and seed.value is None
    )


class NoUnseededRng(Rule):
    code = "RPR005"
    name = "no-unseeded-rng"
    rationale = (
        "numpy.random.default_rng() without an explicit seed draws OS "
        "entropy, so two runs of the same experiment diverge"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if is_unseeded_default_rng(node, ctx.imports):
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without an explicit seed expression; "
                    "pass a seed (or a SeedSequence) so the stream is "
                    "reproducible",
                )
