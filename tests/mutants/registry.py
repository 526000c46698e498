"""Mutants the test suite is claimed to kill, as re-runnable records.

Each :class:`Mutant` is one textual change to a file under ``src/``:
``old`` must occur exactly once in ``file``, and replacing it with
``new`` must make at least one of ``killers`` (pytest node ids) fail.
``claimed_by`` is the title of the CHANGES.md entry whose checks first
made the claim.  ``python -m tests.mutants.runner`` applies each mutant
to a copy of ``src/`` and runs its killers (see that module).

A change that claims a mutant check adds the mutant here in the same diff.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Mutant", "MUTANTS"]


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]
    claimed_by: str


FLAT_SAMPLER = "One adaptive sampler: the flat bandit is the segment tree at depth 1"
STPC_BATCH = "One ST-PC pass per index build"

_SPEC = "tests/spec/test_differential.py::test_every_method_equals_its_spec"
_STPC_BATCH = "tests/property/test_stpc_property.py::test_the_batch_equals_per_pair_loops"

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        id="count-reward-constant-zero",
        file="src/repro/core/reward.py",
        old="    return deviation / (1.0 + deviation)\n",
        new="    return 0.0\n",
        killers=(f"{_SPEC}[seiden_pc]", f"{_SPEC}[mast_nost]"),
        claimed_by=FLAT_SAMPLER,
    ),
    Mutant(
        id="flat-bandit-on-the-mast-stream",
        file="src/repro/baselines/seiden.py",
        old='    rng_stream = "seiden"\n',
        new='    rng_stream = "sampler"\n',
        killers=(f"{_SPEC}[seiden_pc]", f"{_SPEC}[mast_noh]"),
        claimed_by=FLAT_SAMPLER,
    ),
    Mutant(
        id="root-agent-ignores-exhausted-children",
        file="src/repro/core/segment_tree.py",
        old="node = children[self._agent.select(self._open)]",
        new="node = children[self._agent.select()]",
        killers=(
            "tests/unit/test_baselines.py::test_a_near_full_budget_is_spent_exactly_once",
            "tests/unit/test_segment_tree.py",
        ),
        claimed_by=FLAT_SAMPLER,
    ),
    Mutant(
        id="run-certificate-takes-last-minimum",
        file="src/repro/core/stpc.py",
        old="first_min = (at_min[at_min.searchsorted(starts_at)] - starts_at).tolist()",
        new=(
            "first_min = (at_min[at_min.searchsorted(starts_at + width) - 1]"
            " - starts_at).tolist()"
        ),
        killers=(_STPC_BATCH,),
        claimed_by=STPC_BATCH,
    ),
    Mutant(
        id="lone-block-certificate-takes-last-minimum",
        file="src/repro/core/stpc.py",
        old="first_min = cost.reshape(len(row_rows), -1).argmin(axis=1).tolist()",
        new=(
            "first_min = (len(col_rows) - 1 - cost.reshape(len(row_rows), -1)"
            "[:, ::-1].argmin(axis=1)).tolist()"
        ),
        killers=(_STPC_BATCH,),
        claimed_by=STPC_BATCH,
    ),
    Mutant(
        id="certificate-skips-distinct-columns",
        file="src/repro/core/stpc.py",
        old="            if len(set(picks)) == r:\n",
        new="            if len(picks) == r:\n",
        killers=(_STPC_BATCH,),
        claimed_by=STPC_BATCH,
    ),
)
