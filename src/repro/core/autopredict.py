"""Data-driven predictor assignment.

The paper fixes its predictor-per-operator rule empirically: "The
empirical results also guide us in assigning suitable prediction methods
for different aggregate operators" (§7.2, RQ1).  This module automates
that calibration per sequence, with no extra deep-model budget, by
**leave-one-out validation on the sampled frames**: every interior
sampled frame has a known true count (the model ran on it) and can be
predicted from its sampled neighbours by either predictor —

* *linear*: interpolate the neighbours' counts;
* *ST*: run Alg. 1 on the neighbours' detections and count the
  motion-predicted boxes.

Comparing the two error profiles yields a recommended assignment:
operators driven by per-frame threshold decisions (retrieval, Count,
Med, Min, Max) follow the **decision error** — how often the prediction
lands on the wrong side of the Tbl-2 count thresholds, which is exactly
what F1 / Count accuracy punish; Avg follows the *signed bias*, since
averaging cancels symmetric noise but not bias.  Note the validation
gaps are twice the deployment gaps (the held-out frame splits a double
gap), so the comparison is conservative for both predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import stpc
from repro.core.config import MASTConfig
from repro.core.sampler import SamplingResult
from repro.data.annotations import ObjectArray
from repro.query.predicates import ObjectFilter
from repro.utils.validation import require

__all__ = ["PredictorCalibration", "calibrate_predictors"]

_PER_FRAME_OPERATORS = ("Count", "Med", "Min", "Max")
#: Count thresholds the decision error is evaluated against (Tbl 2).
_DECISION_THRESHOLDS = (1, 3, 5, 7, 9)


@dataclass(frozen=True)
class PredictorCalibration:
    """Leave-one-out error profiles and the derived assignment."""

    linear_mae: float
    st_mae: float
    linear_bias: float
    st_bias: float
    linear_decision_error: float
    st_decision_error: float
    n_evaluations: int

    @property
    def per_frame_winner(self) -> str:
        """Predictor with the lower threshold-decision error."""
        return (
            "st"
            if self.st_decision_error <= self.linear_decision_error
            else "linear"
        )

    @property
    def avg_winner(self) -> str:
        """Predictor with the smaller absolute bias (drives Avg)."""
        return "st" if abs(self.st_bias) <= abs(self.linear_bias) else "linear"

    def recommended_assignment(self) -> dict[str, str]:
        """Operator -> predictor map in MASTConfig format."""
        assignment = {op: self.per_frame_winner for op in _PER_FRAME_OPERATORS}
        assignment["Avg"] = self.avg_winner
        return assignment

    def apply_to(self, config: MASTConfig) -> MASTConfig:
        """A config copy with the calibrated assignment installed."""
        return config.with_overrides(
            predictor_by_operator=self.recommended_assignment(),
            retrieval_predictor=self.per_frame_winner,
        )


def calibrate_predictors(
    sampling: SamplingResult,
    object_filters: list[ObjectFilter],
    *,
    config: MASTConfig | None = None,
    max_holdouts: int = 200,
) -> PredictorCalibration:
    """Run leave-one-out validation over the sampled frames.

    Parameters
    ----------
    sampling:
        A completed sampling run (detections for every sampled frame).
    object_filters:
        The filters to validate on — typically the distinct filters of
        the expected workload (``QueryWorkload.object_filters()``).
    max_holdouts:
        Cap on evaluated (frame, filter) combinations, spread evenly.
    """
    require(bool(object_filters), "need at least one object filter")
    config = config or MASTConfig()
    sampled = [int(i) for i in sampling.sampled_ids]
    require(len(sampled) >= 3, "need at least three sampled frames")
    timestamps = sampling.timestamps

    interior = sampled[1:-1]
    per_filter_budget = max(1, max_holdouts // len(object_filters))
    stride = max(1, len(interior) // per_filter_budget)
    holdouts = interior[::stride]

    # Each hold-out's neighbours are analysed once, whatever the number
    # of filters counted against the prediction.
    analysed: dict[int, tuple[int, int, ObjectArray]] = {}
    for frame_id in holdouts:
        position = sampled.index(frame_id)
        left, right = sampled[position - 1], sampled[position + 1]
        estimate = stpc.analyze_pair(
            sampling.detections[left],
            sampling.detections[right],
            timestamps[left],
            timestamps[right],
            max_distance=config.match_max_distance,
        )
        analysed[frame_id] = (
            left, right, estimate.predict(float(timestamps[frame_id]))
        )

    linear_errors: list[float] = []
    st_errors: list[float] = []
    linear_decisions: list[int] = []
    st_decisions: list[int] = []
    for object_filter in object_filters:
        for frame_id in holdouts:
            left, right, st_objects = analysed[frame_id]
            t_left, t_right = float(timestamps[left]), float(timestamps[right])
            t_mid = float(timestamps[frame_id])

            truth = object_filter.count(sampling.detections[frame_id])

            left_count = object_filter.count(sampling.detections[left])
            right_count = object_filter.count(sampling.detections[right])
            linear_prediction = left_count + (right_count - left_count) * (
                (t_mid - t_left) / (t_right - t_left)
            )

            # The filter's own confidence cut applies, exactly as it does
            # against the ST index's flat columns.
            st_prediction = object_filter.count(st_objects)

            linear_errors.append(linear_prediction - truth)
            st_errors.append(st_prediction - truth)
            for theta in _DECISION_THRESHOLDS:
                # Linear retrieval decisions floor the interpolated value
                # (paper Example 5.3); ST counts are already integral.
                linear_decisions.append(
                    int((np.floor(linear_prediction) >= theta) != (truth >= theta))
                )
                st_decisions.append(int((st_prediction >= theta) != (truth >= theta)))

    linear_arr = np.asarray(linear_errors)
    st_arr = np.asarray(st_errors)
    return PredictorCalibration(
        linear_mae=float(np.mean(np.abs(linear_arr))),
        st_mae=float(np.mean(np.abs(st_arr))),
        linear_bias=float(np.mean(linear_arr)),
        st_bias=float(np.mean(st_arr)),
        linear_decision_error=float(np.mean(linear_decisions)),
        st_decision_error=float(np.mean(st_decisions)),
        n_evaluations=int(len(linear_arr)),
    )
