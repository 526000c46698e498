"""Trivial sampling baselines: uniform and random.

Not part of the paper's comparison table, but the natural lower bounds
any adaptive policy must beat; used in tests and the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampler import BaseSampler, SamplingResult, uniform_ids
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.utils.rng import ensure_rng
from repro.utils.timing import CostLedger

__all__ = ["UniformSampler", "RandomSampler"]


class UniformSampler(BaseSampler):
    """Spends the whole budget on one equally spaced pass."""

    name = "uniform"

    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        ledger = ledger if ledger is not None else CostLedger()
        budget = self.config.budget_for(len(sequence))
        sampled, detections = self._uniform_phase(
            sequence, model, budget, ledger, engine or InferenceEngine()
        )
        return SamplingResult(
            sequence_name=sequence.name,
            n_frames=len(sequence),
            timestamps=sequence.timestamps,
            budget=budget,
            sampled_ids=np.asarray(sampled, dtype=np.int64),
            detections=detections,
            ledger=ledger,
            policy_info={"sampler": self.name},
        )


class RandomSampler(BaseSampler):
    """Uniformly random frame subset (endpoints always included).

    Endpoints are forced so every unsampled frame has sampled neighbours
    on both sides, as the prediction machinery assumes.
    """

    name = "random"

    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        ledger = ledger if ledger is not None else CostLedger()
        n_frames = len(sequence)
        budget = self.config.budget_for(n_frames)
        rng = ensure_rng(self.config.seed, "random_sampler", sequence.name)

        forced = uniform_ids(n_frames, 2)
        pool = np.setdiff1d(np.arange(n_frames), forced)
        extra = rng.choice(pool, size=min(max(budget - len(forced), 0), len(pool)),
                           replace=False)
        sampled = np.sort(np.concatenate([forced, extra])).astype(np.int64)

        detections = (engine or InferenceEngine()).detect_wave(
            sequence, sampled, model, ledger=ledger
        )
        return SamplingResult(
            sequence_name=sequence.name,
            n_frames=n_frames,
            timestamps=sequence.timestamps,
            budget=budget,
            sampled_ids=sampled,
            detections=detections,
            ledger=ledger,
            policy_info={"sampler": self.name},
        )
