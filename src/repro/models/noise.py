"""Detection-noise profiles.

A :class:`NoiseProfile` describes how a simulated detector corrupts
ground truth into realistic output: distance-dependent misses,
localization jitter, confidence calibration, and false positives.  The
three oracle variants in the paper map to three profiles (see
:mod:`repro.models.detectors`); their numbers are chosen to match the
papers' reported behaviours (PV-RCNN ≈ 86 %+ vehicle AP; SECOND predicts
fewer but high-confidence objects).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.data.annotations import ObjectArray
from repro.utils.validation import require_fraction, require_non_negative

__all__ = ["NoiseProfile", "apply_noise"]


@dataclass(frozen=True)
class NoiseProfile:
    """Parameters of a simulated detector's error distribution.

    Attributes
    ----------
    detect_prob_near:
        Recall for objects closer than ``falloff_start``.
    falloff_start, falloff_scale:
        Beyond ``falloff_start`` meters, recall decays as
        ``exp(-(d - start) / scale)``.
    center_sigma:
        Base localization jitter (m); grows linearly with distance
        (doubles at 50 m).
    size_sigma, yaw_sigma:
        Extent / heading jitter.
    false_positive_rate:
        Expected hallucinated objects per frame (Poisson).
    score_mean, score_spread:
        Confidence model: ``score = score_mean - score_distance_slope *
        (d / range) + Normal(0, score_spread)``, clipped to [0.05, 1].
    score_threshold:
        Detections scoring below this are suppressed (the model's NMS /
        confidence cut).  High values produce SECOND-style conservative
        output.
    """

    detect_prob_near: float = 0.97
    falloff_start: float = 30.0
    falloff_scale: float = 45.0
    center_sigma: float = 0.10
    size_sigma: float = 0.05
    yaw_sigma: float = 0.03
    false_positive_rate: float = 0.15
    false_positive_score: float = 0.55
    score_mean: float = 0.92
    score_spread: float = 0.05
    score_distance_slope: float = 0.25
    score_threshold: float = 0.30
    sensor_range: float = 75.0

    def __post_init__(self) -> None:
        require_fraction(self.detect_prob_near, "detect_prob_near", inclusive=True)
        require_non_negative(self.center_sigma, "center_sigma")
        require_non_negative(self.false_positive_rate, "false_positive_rate")
        require_fraction(self.score_threshold, "score_threshold", inclusive=True)

    # ------------------------------------------------------------------
    def scaled_to_range(self, sensor_range: float) -> NoiseProfile:
        """This profile rescaled to a sensor of the given range.

        The stock profiles are calibrated against 75 m vehicle sensors;
        on a wide-area sensor (e.g. the 300 m city worlds) the recall
        falloff would otherwise suppress everything past ~120 m.
        Scaling ``falloff_start``/``falloff_scale`` with the range keeps
        the recall-vs-normalized-distance curve — and with it the
        score model and false-positive placement, which already divide
        by ``sensor_range`` — identical across sensor sizes.
        """
        require_non_negative(sensor_range, "sensor_range")
        factor = sensor_range / self.sensor_range
        return replace(
            self,
            falloff_start=self.falloff_start * factor,
            falloff_scale=self.falloff_scale * factor,
            sensor_range=sensor_range,
        )

    def recall_at(self, distances: np.ndarray) -> np.ndarray:
        """Detection probability for objects at the given distances."""
        distances = np.asarray(distances, dtype=float)
        decay = np.exp(-np.maximum(distances - self.falloff_start, 0.0) / self.falloff_scale)
        return self.detect_prob_near * decay


_FP_LABELS = ("Car", "Pedestrian", "Cyclist")
_FP_SIZES = {
    "Car": (4.2, 1.8, 1.6),
    "Pedestrian": (0.7, 0.7, 1.75),
    "Cyclist": (1.8, 0.7, 1.7),
}


def apply_noise(
    ground_truth: ObjectArray,
    profile: NoiseProfile,
    rng: np.random.Generator,
) -> ObjectArray:
    """Corrupt a frame's ground truth according to ``profile``.

    Returns a detection-style :class:`ObjectArray` (no ids, no
    velocities) already filtered by the profile's score threshold: the
    detected true boxes, then the false positives, in draw order.
    """
    n = len(ground_truth)
    # One list of parts per column: the detected true boxes, then the
    # false positives.  The result is built once, from both.
    labels: list[np.ndarray] = []
    centers: list[np.ndarray] = []
    sizes: list[np.ndarray] = []
    yaws: list[np.ndarray] = []
    scores: list[np.ndarray] = []

    if n:
        distances = ground_truth.distances_to_origin()
        detected = rng.random(n) < profile.recall_at(distances)
        dist_kept = distances[detected]
        k = len(dist_kept)
        if k:
            sigma = profile.center_sigma * (1.0 + dist_kept / 50.0)
            centers.append(
                ground_truth.centers[detected]
                + rng.normal(0.0, 1.0, (k, 3)) * sigma[:, None]
            )
            sizes.append(
                np.maximum(
                    ground_truth.sizes[detected]
                    + rng.normal(0.0, profile.size_sigma, (k, 3)),
                    0.2,
                )
            )
            yaws.append(ground_truth.yaws[detected] + rng.normal(0.0, profile.yaw_sigma, k))
            scores.append(
                np.clip(
                    profile.score_mean
                    - profile.score_distance_slope * (dist_kept / profile.sensor_range)
                    + rng.normal(0.0, profile.score_spread, k),
                    0.05,
                    1.0,
                )
            )
            labels.append(ground_truth.labels[detected])

    n_fp = int(rng.poisson(profile.false_positive_rate))
    if n_fp:
        fp_labels = rng.choice(_FP_LABELS, n_fp)
        radius = rng.uniform(5.0, profile.sensor_range, n_fp)
        angle = rng.uniform(0.0, 2.0 * math.pi, n_fp)
        fp_sizes = np.array([_FP_SIZES[str(lab)] for lab in fp_labels]) * rng.uniform(
            0.85, 1.15, (n_fp, 1)
        )
        fp_centers = np.empty((n_fp, 3))
        fp_centers[:, 0] = radius * np.cos(angle)
        fp_centers[:, 1] = radius * np.sin(angle)
        fp_centers[:, 2] = -1.7 + fp_sizes[:, 2] / 2.0
        scores.append(np.clip(rng.normal(profile.false_positive_score, 0.1, n_fp), 0.05, 1.0))
        labels.append(fp_labels.astype("<U16"))
        centers.append(fp_centers)
        sizes.append(fp_sizes)
        yaws.append(rng.uniform(-math.pi, math.pi, n_fp))

    if not labels:
        return ObjectArray.empty()
    columns = [
        parts[0] if len(parts) == 1 else np.concatenate(parts)
        for parts in (labels, centers, sizes, yaws, scores)
    ]
    keep = columns[-1] >= profile.score_threshold
    if not keep.all():
        columns = [column[keep] for column in columns]
    return ObjectArray(*columns)
