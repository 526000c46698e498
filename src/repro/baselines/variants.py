"""Method specifications: the comparison grid of the paper's §7.1.

A :class:`MethodSpec` names a complete query-processing method: which
sampler selects frames and which predictor (linear vs ST) answers each
query type.  The paper's four methods plus the RQ7 ablations:

===============  ==========================  =====================
method           sampler                     prediction
===============  ==========================  =====================
Oracle           all frames                  exact
Seiden-PC        flat MAB, count reward      linear (everything)
Seiden-PCST      flat MAB, count reward      ST (everything)
MAST             hierarchical, ST reward     ST, except linear Avg
MAST-noST        hierarchical, count reward  linear (everything)
MAST-noH         flat MAB, ST reward         ST, except linear Avg
===============  ==========================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.seiden import SeidenPCSampler
from repro.baselines.simple import RandomSampler, UniformSampler
from repro.core.config import MASTConfig
from repro.core.sampler import BaseSampler, HierarchicalMultiAgentSampler
from repro.query.workload import AGGREGATE_OPERATORS_TBL2

__all__ = [
    "MethodSpec",
    "ORACLE",
    "SEIDEN_PC",
    "SEIDEN_PCST",
    "MAST",
    "MAST_NOST",
    "MAST_NOH",
    "RANDOM_LINEAR",
    "UNIFORM_LINEAR",
    "PAPER_METHODS",
    "ABLATION_METHODS",
    "get_method",
    "available_methods",
]

SamplerFactory = Callable[[MASTConfig], BaseSampler]

_LINEAR_ALL = {operator: "linear" for operator in AGGREGATE_OPERATORS_TBL2}
_ST_ALL = {operator: "st" for operator in AGGREGATE_OPERATORS_TBL2}
#: MAST's paper assignment (§7.1): ST everywhere except Avg.
_MAST_MIX = {**_ST_ALL, "Avg": "linear"}


@dataclass(frozen=True)
class MethodSpec:
    """A named (sampler, predictor-assignment) combination."""

    name: str
    display_name: str
    #: ``None`` marks the Oracle (full processing, exact answers).
    make_sampler: SamplerFactory | None
    retrieval_predictor: str = "st"
    predictor_by_operator: dict = field(default_factory=dict)

    @property
    def is_oracle(self) -> bool:
        return self.make_sampler is None


ORACLE = MethodSpec("oracle", "Oracle", None)

SEIDEN_PC = MethodSpec(
    "seiden_pc",
    "Seiden-PC",
    lambda config: SeidenPCSampler(config, reward_kind="count"),
    retrieval_predictor="linear",
    predictor_by_operator=dict(_LINEAR_ALL),
)

SEIDEN_PCST = MethodSpec(
    "seiden_pcst",
    "Seiden-PCST",
    lambda config: SeidenPCSampler(config, reward_kind="count"),
    retrieval_predictor="st",
    predictor_by_operator=dict(_ST_ALL),
)

MAST = MethodSpec(
    "mast",
    "MAST",
    lambda config: HierarchicalMultiAgentSampler(config, reward_kind="st"),
    retrieval_predictor="st",
    predictor_by_operator=dict(_MAST_MIX),
)

MAST_NOST = MethodSpec(
    "mast_nost",
    "MAST-noST",
    lambda config: HierarchicalMultiAgentSampler(config, reward_kind="count"),
    retrieval_predictor="linear",
    predictor_by_operator=dict(_LINEAR_ALL),
)

MAST_NOH = MethodSpec(
    "mast_noh",
    "MAST-noH",
    lambda config: SeidenPCSampler(config, reward_kind="st"),
    retrieval_predictor="st",
    predictor_by_operator=dict(_MAST_MIX),
)

RANDOM_LINEAR = MethodSpec(
    "random",
    "Random",
    lambda config: RandomSampler(config),
    retrieval_predictor="linear",
    predictor_by_operator=dict(_LINEAR_ALL),
)

UNIFORM_LINEAR = MethodSpec(
    "uniform",
    "Uniform",
    lambda config: UniformSampler(config),
    retrieval_predictor="linear",
    predictor_by_operator=dict(_LINEAR_ALL),
)

#: The paper's headline comparison (Tbls 3-5, Figs 5-10).
PAPER_METHODS: tuple[MethodSpec, ...] = (SEIDEN_PC, SEIDEN_PCST, MAST)
#: The RQ7 ablation grid (Fig 11b).
ABLATION_METHODS: tuple[MethodSpec, ...] = (SEIDEN_PC, MAST_NOST, MAST_NOH, MAST)

_ALL = {
    spec.name: spec
    for spec in (
        ORACLE,
        SEIDEN_PC,
        SEIDEN_PCST,
        MAST,
        MAST_NOST,
        MAST_NOH,
        RANDOM_LINEAR,
        UNIFORM_LINEAR,
    )
}


def get_method(name: str) -> MethodSpec:
    """Look up a method spec by name."""
    if name not in _ALL:
        raise ValueError(f"unknown method {name!r}; options: {sorted(_ALL)}")
    return _ALL[name]


def available_methods() -> list[str]:
    """Registered method names, sorted."""
    return sorted(_ALL)
