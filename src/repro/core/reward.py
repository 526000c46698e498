"""Sampling rewards.

:func:`st_reward` is the paper's Eq. 1: the deviation between the object
set predicted by ST-PC analysis and the deep model's actual output on the
newly sampled frame.  Frames that the motion model already explains well
earn low reward (their segment is well understood); frames where reality
diverges — new objects, vanished objects, displaced objects — earn high
reward, steering the bandit toward dynamic regions.

:func:`count_deviation_reward` is the Seiden-style content-variance
reward used by the Seiden-PC baseline and the MAST-noST ablation: it only
compares scalar object counts against a linear interpolation, with no
motion analysis.
"""

from __future__ import annotations

import numpy as np

from repro.data.annotations import ObjectArray
from repro.core.stpc import MotionEstimate, match_by_label

__all__ = ["st_reward", "gap_reward", "count_deviation_reward"]


def st_reward(
    estimated: ObjectArray,
    actual: ObjectArray,
    *,
    d_max: float,
    c_var: float = 0.5,
    max_distance: float | None = None,
) -> float:
    """Eq. 1 — the ST-PC reward.

    .. math::

        r_v = (1 - c_{var}) \\cdot
              \\frac{\\sum_{(b_i, b_j) \\in M} dist(b_i, b_j)}{d_{max} |M|}
              + c_{var} \\cdot (|B^e_t| + |B_t| - 2 |M|)

    Parameters
    ----------
    estimated:
        ``B^e_t`` — boxes predicted by ST-PC analysis at the sampled time.
    actual:
        ``B_t`` — the deep model's detections on the sampled frame.
    d_max:
        Maximum sensor distance (normalizes the matched-distance term).
    c_var:
        Weight between the distance term and the cardinality-mismatch
        term.
    """
    if d_max <= 0:
        raise ValueError(f"d_max must be positive, got {d_max}")
    if not 0.0 <= c_var <= 1.0:
        raise ValueError(f"c_var must be in [0, 1], got {c_var}")
    pairs, _, _ = match_by_label(estimated, actual, max_distance=max_distance)
    n_matched = len(pairs)
    if n_matched:
        idx_est, idx_act = np.array(pairs).T
        diff = estimated.centers[idx_est] - actual.centers[idx_act]
        # ``np.linalg.norm(diff, axis=1)``'s own formula.
        dists = np.sqrt(np.add.reduce(diff * diff, axis=1))
        distance_term = float(dists.sum()) / (d_max * n_matched)
    else:
        distance_term = 0.0
    mismatch_term = float(len(estimated) + len(actual) - 2 * n_matched)
    return (1.0 - c_var) * distance_term + c_var * mismatch_term


def gap_reward(
    estimate: MotionEstimate,
    actual: ObjectArray,
    t_actual: float,
    *,
    confidence_threshold: float,
    d_max: float,
    c_var: float,
    max_distance: float | None,
) -> float:
    """Eq. 1 for a newly sampled frame inside the gap ``estimate`` spans.

    ``estimate`` is the ST-PC analysis of the frame's sampled neighbours
    and ``actual`` the deep model's output on the frame at ``t_actual``:
    the estimate predicts the frame, both sides are cut at
    ``confidence_threshold``, and :func:`st_reward` scores the deviation.
    """
    return st_reward(
        _confident(estimate.predict(t_actual), confidence_threshold),
        _confident(actual, confidence_threshold),
        d_max=d_max,
        c_var=c_var,
        max_distance=max_distance,
    )


def _confident(objects: ObjectArray, threshold: float) -> ObjectArray:
    """``objects`` cut at ``threshold``: the set itself when nothing is cut."""
    keep = objects.scores >= threshold
    return objects if keep.all() else objects.filter(keep)


def count_deviation_reward(actual_count: float, interpolated_count: float) -> float:
    """Seiden-style reward: bounded deviation of count from interpolation.

    Maps ``|actual - interpolated|`` into ``[0, 1)`` via ``x / (1 + x)``
    so the flat bandit's value scale stays comparable across segments.
    """
    deviation = abs(float(actual_count) - float(interpolated_count))
    return deviation / (1.0 + deviation)
