"""The inference engine: detection requests, memoized and billed.

:class:`InferenceEngine` is the only place a deep model is invoked: the
samplers, the Oracle/proxy baselines and the experiment runner all go
through :meth:`InferenceEngine.detect_wave`.  Each requested frame is
resolved, in order, on the calling thread: from the caller's ``known``
dict, else from the :class:`~repro.inference.store.DetectionStore`, else
by ``model.detect`` — and the :class:`~repro.utils.timing.CostLedger` is
charged as each frame resolves:

* every frame actually detected is billed ``model.cost_per_frame``
  simulated seconds (one invocation);
* a store hit is **never** billed as a model invocation — it is recorded
  on the ledger's per-stage cache counters instead, mirroring how the
  serving cache reports its hit rates.

Because detectors are deterministic per frame, results are bit-identical
across warm/cold stores; only the hit counters change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.data.annotations import ObjectArray
from repro.data.sequence import FrameSequence
from repro.inference.store import (
    DetectionStore,
    detection_key,
    model_fingerprint,
)
from repro.models.base import DetectionModel
from repro.utils.timing import STAGE_MODEL, CostLedger

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.core.config import MASTConfig

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """Resolves detection requests through an optional detection store.

    Parameters
    ----------
    store:
        Optional shared :class:`DetectionStore`.  Without one the engine
        always executes (each sampling run still deduplicates within
        itself via its detections dict).
    """

    def __init__(self, *, store: DetectionStore | None = None) -> None:
        self.store = store
        self._fingerprints: dict[int, str] = {}

    @classmethod
    def from_config(
        cls, config: MASTConfig, *, store: DetectionStore | None = None
    ) -> InferenceEngine:
        """``InferenceEngine(store=store)``; ``config`` is not read.

        Kept because ``benchmarks/observatory/scoring.py`` builds its
        engine through this name; everything else calls the constructor.
        """
        return cls(store=store)

    # ------------------------------------------------------------------
    def detect_wave(
        self,
        sequence: FrameSequence,
        frame_ids: Iterable[int],
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        known: dict[int, ObjectArray] | None = None,
    ) -> dict[int, ObjectArray]:
        """Detect a wave of frames, returning ``frame_id -> ObjectArray``.

        ``known`` holds detections the caller already has (a sampling
        run's accumulator); those ids are skipped entirely — no charge,
        no cache counter.  The result maps every *newly resolved* id,
        store hits included.

        Each frame is billed, stored and published to ``known`` as soon
        as it resolves, so when ``model.detect`` raises, every frame
        before it stays paid for exactly once: a retry with the same
        ``known`` (or store) detects only the rest.
        """
        resolved: dict[int, ObjectArray] = {}
        fingerprint = self._fingerprint(model) if self.store is not None else ""
        for frame_id in frame_ids:
            frame_id = int(frame_id)
            if frame_id in resolved or (known is not None and frame_id in known):
                continue
            frame = sequence[frame_id]
            objects = None
            if self.store is not None:
                key = detection_key(sequence.name, frame, fingerprint)
                objects = self.store.lookup(key)
                if ledger is not None:
                    ledger.record_cache(STAGE_MODEL, hit=objects is not None)
            if objects is None:
                objects = model.detect(frame).objects
                if ledger is not None:
                    ledger.charge(STAGE_MODEL, model.cost_per_frame)
                if self.store is not None:
                    self.store.put(key, objects)
            resolved[frame_id] = objects
            if known is not None:
                known[frame_id] = objects
        return resolved

    def detect_one(
        self,
        sequence: FrameSequence,
        frame_id: int,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        known: dict[int, ObjectArray] | None = None,
    ) -> ObjectArray:
        """Detect a single frame (a wave of one)."""
        frame_id = int(frame_id)
        if known is not None and frame_id in known:
            return known[frame_id]
        return self.detect_wave(
            sequence, [frame_id], model, ledger=ledger, known=known
        )[frame_id]

    def _fingerprint(self, model: DetectionModel) -> str:
        fingerprint = self._fingerprints.get(id(model))
        if fingerprint is None:
            fingerprint = model_fingerprint(model)
            self._fingerprints[id(model)] = fingerprint
        return fingerprint

    # ------------------------------------------------------------------
    # ``with`` is kept for callers that scope an engine to a block (the
    # observatory does); there is nothing to release on exit.
    def __enter__(self) -> InferenceEngine:
        return self

    def __exit__(self, *_exc: object) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InferenceEngine(store={'yes' if self.store is not None else 'no'})"
