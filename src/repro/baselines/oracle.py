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
from repro.query.predicates import ObjectFilter, ObjectRows
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
        self._rows = ObjectRows.flatten(self._detections)

    # ------------------------------------------------------------------
    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Exact count series for ``object_filter``."""
        return self.count_series_many([object_filter])[object_filter]

    def count_series_many(
        self, filters, *, start: int = 0
    ) -> dict[ObjectFilter, np.ndarray]:
        """Exact count series of ``filters`` over frames ``[start, n_frames)``."""
        return self._rows.count_series(filters, self.n_frames, start=start)

    def detections_at(self, frame_id: int) -> ObjectArray:
        """The model's detections for one frame."""
        return self._detections[frame_id]
