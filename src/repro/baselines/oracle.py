"""The Oracle baseline (paper §7.1).

"Inputs all PC frames to the oracle model and generates the ground
object prediction result" — every frame is processed by the deep model
(charging the full inference budget) and queries are answered exactly
from the stored detections.  The paper treats the Oracle's answers as
the ground truth that F1 and aggregate accuracy are measured against.
"""

from __future__ import annotations

import numpy as np

from repro.data.annotations import ObjectArray
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.query.predicates import ObjectFilter
from repro.utils.timing import CostLedger

__all__ = ["OracleCountProvider", "SIMULATED_QUERY_COST_ORACLE"]

#: Simulated per-query seconds per frame for the Oracle's full scan.
#: At |D| ~ 4,500 this is ~0.15 s per query, inside the paper's measured
#: 0.07-0.29 s/query band (Fig. 6: 9.5-37.2 s for 130 queries).
SIMULATED_QUERY_COST_ORACLE = 3.3e-5


class OracleCountProvider:
    """Exact per-frame counts from full-sequence deep-model output."""

    simulated_query_cost_per_frame = SIMULATED_QUERY_COST_ORACLE

    def __init__(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> None:
        self.n_frames = len(sequence)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.model_name = model.name
        # The Oracle's frame set is the whole sequence.
        self._detections = (engine or InferenceEngine()).detect_wave(
            sequence, range(self.n_frames), model, ledger=self.ledger
        )

        frame_idx_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        position_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        for frame in sequence:
            objects = self._detections[frame.frame_id]
            if not len(objects):
                continue
            frame_idx_parts.append(
                np.full(len(objects), frame.frame_id, dtype=np.int64)
            )
            label_parts.append(objects.labels)
            position_parts.append(objects.centers[:, :2])
            score_parts.append(objects.scores)

        if frame_idx_parts:
            self._frame_index = np.concatenate(frame_idx_parts)
            self._labels = np.concatenate(label_parts)
            self._positions = np.concatenate(position_parts)
            self._scores = np.concatenate(score_parts)
        else:
            self._frame_index = np.zeros(0, dtype=np.int64)
            self._labels = np.empty(0, dtype="<U16")
            self._positions = np.zeros((0, 2))
            self._scores = np.zeros(0)
        self._cache: dict[ObjectFilter, np.ndarray] = {}

    # ------------------------------------------------------------------
    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Exact count series for ``object_filter``."""
        cached = self._cache.get(object_filter)
        if cached is not None:
            return cached
        mask = self._scores >= object_filter.confidence
        if object_filter.label is not None:
            mask &= self._labels == object_filter.label
        if object_filter.spatial is not None:
            mask &= object_filter.spatial.mask_positions(self._positions)
        counts = np.bincount(
            self._frame_index[mask], minlength=self.n_frames
        ).astype(float)
        self._cache[object_filter] = counts
        return counts

    def detections_at(self, frame_id: int) -> ObjectArray:
        """The model's detections for one frame."""
        return self._detections[frame_id]
