"""Seiden-PC: the adapted video-sampling baseline (paper §7.1).

Seiden [3] models sampling as a *flat* multi-arm bandit: a uniform pass
splits the sequence into segments (the arms), a single UCB agent picks a
segment per step, and a random unsampled frame inside it is processed.
The reward is content variance — how far the frame's object count falls
from the linear interpolation of its sampled neighbours.  Unlike MAST
there is no hierarchy (the arm set is fixed) and no motion analysis.

That bandit is MAST's segment tree at depth cap 1: the uniform segments
are the root's children, a leaf at the cap never splits and draws its
frame uniformly, and the root's UCB agent is Seiden's.  So the sampler
is :class:`HierarchicalMultiAgentSampler` with ``max_depth=1`` on its
own ``"seiden"`` RNG stream.

``reward_kind="st"`` swaps in MAST's Eq.-1 reward while keeping the flat
structure, which is exactly the **MAST-noH** ablation of RQ7.
"""

from __future__ import annotations

from repro.core.config import MASTConfig
from repro.core.sampler import HierarchicalMultiAgentSampler, SamplingResult
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.utils.timing import CostLedger

__all__ = ["SeidenPCSampler"]


class SeidenPCSampler(HierarchicalMultiAgentSampler):
    """Flat UCB bandit over fixed uniform segments."""

    name = "seiden_pc"
    rng_stream = "seiden"

    def __init__(
        self, config: MASTConfig | None = None, *, reward_kind: str = "count"
    ) -> None:
        super().__init__(config, reward_kind=reward_kind)
        self.config = self.config.with_overrides(max_depth=1)
        if reward_kind == "st":
            self.name = "mast_noh"

    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        result = super().sample(sequence, model, ledger=ledger, engine=engine)
        # At depth 1 no leaf splits: the leaves are the uniform segments.
        result.policy_info = {
            "sampler": self.name,
            "reward_kind": self.reward_kind,
            "n_segments": result.policy_info.get("tree_leaves", 0),
        }
        return result
