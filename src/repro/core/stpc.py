"""Spatio-temporal point-cloud (ST-PC) analysis — paper Alg. 1.

Given the detections of two sampled frames ``P_t1`` and ``P_t2``, ST-PC
analysis tracks objects across the pair (per-label Hungarian matching on
center distances), derives a constant velocity for each matched object,
and classifies the unmatched remainder:

* boxes present only at ``t1`` are **disappearing**: they stay in place
  with velocity 0 and their confidence decays as ``t`` approaches ``t2``;
* boxes present only at ``t2`` are **appearing** ("additional boxes"):
  their confidence grows as ``t`` approaches ``t2``.

The resulting :class:`MotionEstimate` predicts the object set of any
unsampled frame in between (Example 5.2), which powers both the sampling
reward (Eq. 1) and the index of Alg. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.annotations import ObjectArray
from repro.geometry.matching import match_pairs

if TYPE_CHECKING:
    from repro.inference import InferenceEngine

__all__ = ["MotionEstimate", "analyze_pair", "analyze_pair_once", "match_by_label"]


def _rows_by_label(labels: np.ndarray) -> dict[str, list[int]]:
    """``label -> ascending row indices`` in one pass over ``labels``."""
    groups: dict[str, list[int]] = {}
    for row, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(row)
    return groups


def match_by_label(
    objects_a: ObjectArray,
    objects_b: ObjectArray,
    *,
    max_distance: float | None = None,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Hungarian matching restricted to same-label pairs (Alg. 1 line 6).

    Returns ``(pairs, unmatched_a, unmatched_b)`` with indices into the
    original arrays.  "We only match objects with the same category", so
    matching runs independently per label.  Each side's labels are
    grouped once per call; nothing is cached on the object sets, which
    are pickled into checkpoints and fingerprints.
    """
    pairs: list[tuple[int, int]] = []
    free_a = np.ones(len(objects_a), dtype=bool)
    free_b = np.ones(len(objects_b), dtype=bool)
    rows_a = _rows_by_label(objects_a.labels)
    rows_b = _rows_by_label(objects_b.labels)
    for label in sorted(rows_a.keys() & rows_b.keys()):
        idx_a = np.array(rows_a[label], dtype=np.int64)
        idx_b = np.array(rows_b[label], dtype=np.int64)
        diff = (
            objects_a.centers[idx_a][:, None, :] - objects_b.centers[idx_b][None, :, :]
        )
        cost = np.linalg.norm(diff, axis=2)
        local_pairs = match_pairs(cost, max_distance)
        if not local_pairs:
            continue
        local = np.array(local_pairs)
        global_a = idx_a[local[:, 0]]
        global_b = idx_b[local[:, 1]]
        free_a[global_a] = False
        free_b[global_b] = False
        pairs.extend(zip(global_a.tolist(), global_b.tolist()))
    return (
        sorted(pairs),
        np.flatnonzero(free_a).tolist(),
        np.flatnonzero(free_b).tolist(),
    )


@dataclass(frozen=True, eq=False)
class MotionEstimate:
    """Tracked motion between two sampled frames (output of Alg. 1).

    Estimates compare and hash by identity: one estimate is shared by
    every caller that analyses the same pair, and a field-wise ``==``
    over its array fields has no truth value.

    Attributes
    ----------
    objects_start, objects_end:
        Detection sets of the earlier / later sampled frame.
    t_start, t_end:
        Their timestamps (``t_end > t_start``).
    matched:
        ``(2, K)`` int64 array of the ``K`` matched pairs: row 0 indexes
        the start set, row 1 the end set (same objects).  An array, not
        tuples: the motion memo keeps thousands of estimates alive.
    velocities:
        ``(len(objects_start), 2)`` xy velocities; zero for unmatched
        boxes (Alg. 1 lines 10-13).
    disappearing, appearing:
        Indices of unmatched boxes in the start / end set.
    """

    objects_start: ObjectArray
    objects_end: ObjectArray
    t_start: float
    t_end: float
    matched: np.ndarray
    velocities: np.ndarray
    disappearing: tuple[int, ...]
    appearing: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )

    # ------------------------------------------------------------------
    @property
    def matched_pairs(self) -> tuple[tuple[int, int], ...]:
        """The matched pairs as ``(i, j)`` index tuples."""
        return tuple(zip(*self.matched.tolist()))

    @property
    def duration(self) -> float:
        """Time between the two sampled frames."""
        return self.t_end - self.t_start

    # ------------------------------------------------------------------
    def predict(self, t: float) -> ObjectArray:
        """Estimated object set at time ``t`` (Example 5.2).

        Matched boxes translate at constant velocity.  Disappearing boxes
        stay at their ``t1`` location with confidence scaled by
        ``(t2 - t) / (t2 - t1)``; appearing boxes sit at their ``t2``
        location with confidence scaled by ``(t - t1) / (t2 - t1)``.
        ``t`` outside ``[t1, t2]`` extrapolates (confidence factors are
        clamped to [0, 1]).
        """
        frac = (t - self.t_start) / self.duration
        conf_appear = float(np.clip(frac, 0.0, 1.0))
        conf_disappear = 1.0 - conf_appear
        parts: list[ObjectArray] = []

        matched_idx = self.matched[0]
        if len(matched_idx):
            moved = self.objects_start.filter(matched_idx)
            deltas = self.velocities[matched_idx] * (t - self.t_start)
            parts.append(moved.translated(deltas))

        if self.disappearing:
            idx = np.asarray(self.disappearing, dtype=np.int64)
            ghosts = self.objects_start.filter(idx)
            parts.append(ghosts.with_scores(ghosts.scores * conf_disappear))

        if self.appearing:
            idx = np.asarray(self.appearing, dtype=np.int64)
            newcomers = self.objects_end.filter(idx)
            parts.append(newcomers.with_scores(newcomers.scores * conf_appear))

        return ObjectArray.concatenate(parts)

    def predict_flat(
        self, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized prediction for many timestamps at once.

        Returns ``(row_timestamp_index, labels, positions, scores)``
        flattened over ``len(timestamps) x n_boxes`` rows, with
        ``positions`` of shape ``(rows, 2)`` — exactly the columns the
        flat index needs, skipping ObjectArray construction.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        n_t = len(timestamps)
        if n_t == 0:
            empty = np.zeros(0)
            return (
                empty.astype(np.int64),
                np.empty(0, dtype="<U16"),
                np.zeros((0, 2)),
                empty,
            )

        frac = np.clip((timestamps - self.t_start) / self.duration, 0.0, 1.0)
        labels_parts: list[np.ndarray] = []
        position_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        index_parts: list[np.ndarray] = []

        matched_idx = self.matched[0]
        if len(matched_idx):
            base = self.objects_start.centers[matched_idx, :2]  # (K, 2)
            vel = self.velocities[matched_idx]  # (K, 2)
            dts = (timestamps - self.t_start)[:, None, None]  # (T, 1, 1)
            positions = base[None, :, :] + vel[None, :, :] * dts  # (T, K, 2)
            position_parts.append(positions.reshape(-1, 2))
            labels_parts.append(
                np.tile(self.objects_start.labels[matched_idx], n_t)
            )
            score_parts.append(np.tile(self.objects_start.scores[matched_idx], n_t))
            index_parts.append(np.repeat(np.arange(n_t), len(matched_idx)))

        if self.disappearing:
            idx = np.asarray(self.disappearing, dtype=np.int64)
            static = self.objects_start.centers[idx, :2]
            position_parts.append(np.tile(static, (n_t, 1)))
            labels_parts.append(np.tile(self.objects_start.labels[idx], n_t))
            score_parts.append(
                (self.objects_start.scores[idx][None, :] * (1.0 - frac)[:, None]).ravel()
            )
            index_parts.append(np.repeat(np.arange(n_t), len(idx)))

        if self.appearing:
            idx = np.asarray(self.appearing, dtype=np.int64)
            static = self.objects_end.centers[idx, :2]
            position_parts.append(np.tile(static, (n_t, 1)))
            labels_parts.append(np.tile(self.objects_end.labels[idx], n_t))
            score_parts.append(
                (self.objects_end.scores[idx][None, :] * frac[:, None]).ravel()
            )
            index_parts.append(np.repeat(np.arange(n_t), len(idx)))

        if not labels_parts:
            empty = np.zeros(0)
            return (
                empty.astype(np.int64),
                np.empty(0, dtype="<U16"),
                np.zeros((0, 2)),
                empty,
            )
        return (
            np.concatenate(index_parts),
            np.concatenate(labels_parts),
            np.concatenate(position_parts),
            np.concatenate(score_parts),
        )


def analyze_pair(
    objects_start: ObjectArray,
    objects_end: ObjectArray,
    t_start: float,
    t_end: float,
    *,
    max_distance: float | None = None,
) -> MotionEstimate:
    """Run Alg. 1 on the detections of two sampled frames.

    Matched boxes get velocity ``(c2 - c1) / (t2 - t1)``; all unmatched
    boxes get velocity 0 and enter the disappearing/appearing lists.
    """
    if not t_end > t_start:
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    pairs, unmatched_a, unmatched_b = match_by_label(
        objects_start, objects_end, max_distance=max_distance
    )
    velocities = np.zeros((len(objects_start), 2))
    dt = t_end - t_start
    matched = np.ascontiguousarray(np.array(pairs, dtype=np.int64).reshape(-1, 2).T)
    rows, cols = matched
    velocities[rows] = (
        objects_end.centers[cols, :2] - objects_start.centers[rows, :2]
    ) / dt
    return MotionEstimate(
        objects_start=objects_start,
        objects_end=objects_end,
        t_start=float(t_start),
        t_end=float(t_end),
        matched=matched,
        velocities=velocities,
        disappearing=tuple(unmatched_a),
        appearing=tuple(unmatched_b),
    )


def analyze_pair_once(
    engine: InferenceEngine | None,
    objects_start: ObjectArray,
    objects_end: ObjectArray,
    t_start: float,
    t_end: float,
    *,
    max_distance: float | None = None,
) -> MotionEstimate:
    """:func:`analyze_pair`, run once per pair of detections under ``engine``.

    The one reuse rule for ST-PC analysis: the estimate is the engine's
    memoized one when both detection sets are the same objects (``is``)
    at the same timestamps under the same matching gate — so the
    sampler, the index and predictor calibration share a single
    :class:`MotionEstimate` per pair, across re-plans too.  Without an
    engine it simply computes.
    """
    t_start, t_end = float(t_start), float(t_end)

    def compute() -> MotionEstimate:
        return analyze_pair(
            objects_start, objects_end, t_start, t_end, max_distance=max_distance
        )

    if engine is None:
        return compute()
    return engine.motion.get(
        "estimate",
        (objects_start, objects_end),
        (t_start, t_end, max_distance),
        compute,
    )
