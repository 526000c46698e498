"""The inference engine: waves of detection requests, memoized and billed.

:class:`InferenceEngine` is the single entry point the samplers, the
Oracle/proxy baselines and the experiment runner use to invoke a deep
model.  One :meth:`detect_wave` call takes every frame id a policy round
already knows it will need (the uniform pass, a bandit round's candidate
set), answers what it can from the :class:`~repro.inference.store.
DetectionStore`, fans the remainder over the configured
:class:`~repro.inference.executors.DetectionExecutor`, and charges the
:class:`~repro.utils.timing.CostLedger`:

* every frame actually detected is billed ``model.cost_per_frame``
  simulated seconds (one invocation), exactly as the serial loops did;
* a store hit is **never** billed as a model invocation — it is recorded
  on the ledger's per-stage cache counters instead, mirroring how PR 1's
  serving cache reports its hit rates.

Because detectors are deterministic per frame, results are bit-identical
across executors and across warm/cold stores; only the wall-clock and
the hit counters change.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.inference.executors import DetectionExecutor, make_executor
from repro.inference.motion import MotionMemo
from repro.inference.store import (
    DetectionStore,
    StoreStats,
    detection_key,
    model_fingerprint,
)
from repro.models.base import DetectionModel, FrameDetections
from repro.utils.timing import STAGE_MODEL, CostLedger

if TYPE_CHECKING:
    from collections.abc import Iterable

    from repro.core.config import MASTConfig

__all__ = ["InferenceEngine", "PacedModel"]


class InferenceEngine:
    """Executes detection waves through an executor and a detection store.

    Parameters
    ----------
    executor:
        A :class:`DetectionExecutor` instance, or a kind string
        (``"serial"`` / ``"thread"``).  Kind strings
        build an owned executor that :meth:`close` shuts down; instances
        are borrowed and left running.
    workers, batch_size:
        Pool sizing, forwarded when ``executor`` is a kind string.
    store:
        Optional shared :class:`DetectionStore`.  Without one the engine
        always executes (each sampling run still deduplicates within
        itself via its detections dict).
    """

    def __init__(
        self,
        executor: DetectionExecutor | str = "serial",
        *,
        workers: int | None = None,
        batch_size: int | None = None,
        store: DetectionStore | None = None,
    ) -> None:
        if isinstance(executor, str):
            self.executor = make_executor(
                executor, workers=workers, batch_size=batch_size
            )
            self._owns_executor = True
        else:
            self.executor = executor
            self._owns_executor = False
        self.store = store
        #: ST-PC results over the detections this engine serves; callers
        #: go through :func:`repro.core.stpc.analyze_pair_once` and
        #: :func:`repro.core.reward.triple_reward`.
        self.motion = MotionMemo()
        self._fingerprints: dict[int, str] = {}

    @classmethod
    def from_config(
        cls, config: MASTConfig, *, store: DetectionStore | None = None
    ) -> InferenceEngine:
        """Build an engine from a :class:`~repro.core.config.MASTConfig`."""
        return cls(
            config.executor,
            workers=config.workers or None,
            store=store,
        )

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
        no cache counter, exactly like the old per-frame guard.  The
        result maps every *newly resolved* id, store hits included.
        """
        wanted: list[int] = []
        seen: set[int] = set()
        for frame_id in frame_ids:
            frame_id = int(frame_id)
            if frame_id in seen or (known is not None and frame_id in known):
                continue
            seen.add(frame_id)
            wanted.append(frame_id)
        if not wanted:
            return {}

        resolved: dict[int, ObjectArray] = {}
        misses: list[int] = []
        if self.store is not None:
            fingerprint = self._fingerprint(model)
            keys = {
                frame_id: detection_key(sequence.name, sequence[frame_id], fingerprint)
                for frame_id in wanted
            }
            for frame_id in wanted:
                objects = self.store.lookup(keys[frame_id])
                if objects is not None:
                    resolved[frame_id] = objects
                    if ledger is not None:
                        ledger.record_cache(STAGE_MODEL, hit=True)
                else:
                    misses.append(frame_id)
                    if ledger is not None:
                        ledger.record_cache(STAGE_MODEL, hit=False)
        else:
            misses = wanted

        if misses:
            frames = [sequence[frame_id] for frame_id in misses]
            outputs = self.executor.run(model, frames)
            for frame_id, objects in zip(misses, outputs):
                resolved[frame_id] = objects
                if ledger is not None:
                    ledger.charge(STAGE_MODEL, model.cost_per_frame)
                if self.store is not None:
                    self.store.put(keys[frame_id], objects)

        if known is not None:
            known.update(resolved)
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
    def store_stats(self) -> StoreStats | None:
        """The detection store's counters (``None`` without a store)."""
        return self.store.stats() if self.store is not None else None

    def close(self) -> None:
        """Shut down the executor if this engine owns it."""
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> InferenceEngine:
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceEngine(executor={self.executor!r}, "
            f"store={'yes' if self.store is not None else 'no'})"
        )


class PacedModel(DetectionModel):
    """Wrap a model with *real* per-frame latency for throughput benches.

    The library charges simulated seconds for model invocations; this
    wrapper additionally sleeps ``latency`` real seconds per ``detect``,
    emulating the accelerator-bound inference a deployment would block
    on.  Sleeping releases the GIL, so the parallel executors overlap it
    exactly as they would overlap GPU round-trips.  Detections (and the
    store fingerprint) are delegated to the wrapped model, so paced and
    unpaced runs share memo entries and remain bit-identical.
    """

    def __init__(self, base: DetectionModel, *, latency: float = 0.002) -> None:
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        self.base = base
        self.latency = float(latency)
        self.name = base.name
        self.cost_per_frame = base.cost_per_frame

    def detect(self, frame: PointCloudFrame) -> FrameDetections:
        if self.latency:
            time.sleep(self.latency)
        return self.base.detect(frame)

    @property
    def num_parameters(self) -> int:
        return self.base.num_parameters

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PacedModel({self.base!r}, latency={self.latency}s)"
