"""Seiden-PC: the adapted video-sampling baseline (paper §7.1).

Seiden [3] models sampling as a *flat* multi-arm bandit: a uniform pass
splits the sequence into segments (the arms), a single UCB agent picks a
segment per step, and a random unsampled frame inside it is processed.
The reward is content variance — how far the frame's object count falls
from the linear interpolation of its sampled neighbours.  Unlike MAST
there is no hierarchy (the arm set is fixed) and no motion analysis.

``reward_kind="st"`` swaps in MAST's Eq.-1 reward while keeping the flat
structure, which is exactly the **MAST-noH** ablation of RQ7.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core.bandit import UCBAgent
from repro.core.config import MASTConfig
from repro.core.sampler import BaseSampler, SamplingResult
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.utils.rng import ensure_rng
from repro.utils.timing import STAGE_POLICY, CostLedger
from repro.utils.validation import require_in

__all__ = ["SeidenPCSampler"]


class SeidenPCSampler(BaseSampler):
    """Flat UCB bandit over fixed uniform segments."""

    name = "seiden_pc"

    def __init__(
        self, config: MASTConfig | None = None, *, reward_kind: str = "count"
    ) -> None:
        super().__init__(config)
        require_in(reward_kind, ("count", "st"), "reward_kind")
        self.reward_kind = reward_kind
        if reward_kind == "st":
            self.name = "mast_noh"

    # ------------------------------------------------------------------
    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        config = self.config
        engine = engine or InferenceEngine()
        ledger = ledger if ledger is not None else CostLedger()
        n_frames = len(sequence)
        budget = config.budget_for(n_frames)
        uniform_budget = config.uniform_budget_for(budget)

        sampled, detections = self._uniform_phase(
            sequence, model, uniform_budget, ledger, engine
        )
        rng = ensure_rng(config.seed, "seiden", sequence.name)

        segments = list(zip(sampled[:-1], sampled[1:]))
        # Track the not-yet-sampled interiors; segments never split.
        remaining_frames = [
            [f for f in range(lo + 1, hi)] for lo, hi in segments
        ]
        agent = UCBAgent(
            max(len(segments), 1), c=config.ucb_c, alpha=config.alpha_r, rng=rng
        )
        available = np.array([bool(frames) for frames in remaining_frames])

        rewards: list[float] = []
        remaining_budget = budget - len(sampled)
        while remaining_budget > 0 and available.any():
            with ledger.measure(STAGE_POLICY):
                arm = agent.select(available)
                pool = remaining_frames[arm]
                frame_id = pool.pop(int(rng.integers(len(pool))))
                if not pool:
                    available[arm] = False
            actual = engine.detect_one(
                sequence, frame_id, model, ledger=ledger, known=detections
            )
            with ledger.measure(STAGE_POLICY):
                reward = self._adaptive_reward(
                    sequence, sampled, detections, frame_id, actual,
                    self.reward_kind, engine,
                )
                agent.update(arm, reward)
                bisect.insort(sampled, frame_id)
                rewards.append(reward)
            remaining_budget -= 1

        return SamplingResult(
            sequence_name=sequence.name,
            n_frames=n_frames,
            timestamps=sequence.timestamps,
            budget=budget,
            sampled_ids=np.asarray(sampled, dtype=np.int64),
            detections=detections,
            rewards=rewards,
            ledger=ledger,
            policy_info={
                "sampler": self.name,
                "reward_kind": self.reward_kind,
                "n_segments": len(segments),
            },
        )
