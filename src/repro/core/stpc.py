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
    matching runs independently per label, on that label's block of
    center distances.  Each side's labels are grouped once per call;
    nothing is cached on the object sets, which are pickled into
    checkpoints and fingerprints.
    """
    pairs: list[tuple[int, int]] = []
    rows_a = _rows_by_label(objects_a.labels)
    rows_b = _rows_by_label(objects_b.labels)
    for label in sorted(rows_a.keys() & rows_b.keys()):
        idx_a = rows_a[label]
        idx_b = rows_b[label]
        diff = objects_a.centers[idx_a][:, None, :] - objects_b.centers[idx_b][None, :, :]
        # ``np.linalg.norm(diff, axis=2)``'s own formula, without its
        # dispatch: the same values bit for bit.
        cost = np.sqrt(np.add.reduce(diff * diff, axis=2))
        pairs.extend((idx_a[i], idx_b[j]) for i, j in match_pairs(cost, max_distance))
    pairs.sort()
    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    return (
        pairs,
        [i for i in range(len(objects_a)) if i not in matched_a],
        [j for j in range(len(objects_b)) if j not in matched_b],
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
    def _parts(self) -> list[tuple[ObjectArray, np.ndarray]]:
        """``(source set, row indices)`` of the non-empty prediction parts.

        In row order: the matched boxes and the disappearing ones (both
        from the start set), then the appearing ones (from the end set).
        Empty parts are left out, so a label column's dtype is the
        promotion of the parts that contribute rows.
        """
        start_rows = self.matched[0]
        if self.disappearing:
            start_rows = np.concatenate(
                [start_rows, np.asarray(self.disappearing, dtype=np.int64)]
            )
        parts = [(self.objects_start, start_rows)] if len(start_rows) else []
        if self.appearing:
            parts.append((self.objects_end, np.asarray(self.appearing, dtype=np.int64)))
        return parts

    def predict(self, t: float) -> ObjectArray:
        """Estimated object set at time ``t`` (Example 5.2).

        Matched boxes translate at constant velocity.  Disappearing boxes
        stay at their ``t1`` location with confidence scaled by
        ``(t2 - t) / (t2 - t1)``; appearing boxes sit at their ``t2``
        location with confidence scaled by ``(t - t1) / (t2 - t1)``.
        ``t`` outside ``[t1, t2]`` extrapolates (confidence factors are
        clamped to [0, 1]).  Rows are matched, disappearing, appearing.
        """
        parts = self._parts()
        if not parts:
            return ObjectArray.empty()
        frac = (t - self.t_start) / self.duration
        conf_appear = float(np.clip(frac, 0.0, 1.0))
        n_matched = self.matched.shape[1]
        n_start = n_matched + len(self.disappearing)

        def column(name: str) -> np.ndarray:
            return np.concatenate([getattr(source, name)[rows] for source, rows in parts])

        def optional(name: str) -> np.ndarray | None:
            if any(getattr(source, name) is None for source, _ in parts):
                return None
            return column(name)

        centers = column("centers")
        centers[:n_matched, :2] += self.velocities[self.matched[0]] * (t - self.t_start)
        scores = column("scores")
        scores[n_matched:n_start] *= 1.0 - conf_appear
        scores[n_start:] *= conf_appear
        return ObjectArray(
            labels=column("labels"),
            centers=centers,
            sizes=column("sizes"),
            yaws=column("yaws"),
            scores=scores,
            velocities=optional("velocities"),
            ids=optional("ids"),
        )

    def predict_flat(
        self, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized prediction for many timestamps at once.

        Returns ``(row_timestamp_index, labels, positions, scores)``
        flattened over ``len(timestamps) x n_boxes`` rows, with
        ``positions`` of shape ``(rows, 2)`` — exactly the columns the
        flat index needs, skipping ObjectArray construction.  Rows run
        part by part (matched, disappearing, appearing) and, within a
        part, timestamp by timestamp.
        """
        timestamps = np.asarray(timestamps, dtype=float)
        n_t = len(timestamps)
        parts = self._parts() if n_t else []
        if not parts:
            empty = np.zeros(0)
            return (
                empty.astype(np.int64),
                np.empty(0, dtype="<U16"),
                np.zeros((0, 2)),
                empty,
            )
        frac = np.clip((timestamps - self.t_start) / self.duration, 0.0, 1.0)
        n_matched = self.matched.shape[1]
        n_start = n_matched + len(self.disappearing)
        n_boxes = n_start + len(self.appearing)
        labels = np.concatenate([source.labels[rows] for source, rows in parts])
        base = np.concatenate([source.centers[rows, :2] for source, rows in parts])
        base_scores = np.concatenate([source.scores[rows] for source, rows in parts])

        out_index = np.empty(n_t * n_boxes, dtype=np.int64)
        out_labels = np.empty(n_t * n_boxes, dtype=labels.dtype)
        out_positions = np.empty((n_t * n_boxes, 2))
        out_scores = np.empty(n_t * n_boxes)
        time_index = np.arange(n_t)[:, None]
        for lo, hi, weights in (
            (0, n_matched, None),
            (n_matched, n_start, 1.0 - frac),
            (n_start, n_boxes, frac),
        ):
            if lo == hi:
                continue
            block = slice(n_t * lo, n_t * hi)
            shape = (n_t, hi - lo)
            out_index[block].reshape(shape)[...] = time_index
            out_labels[block].reshape(shape)[...] = labels[lo:hi]
            positions = out_positions[block].reshape(shape + (2,))
            if weights is None:  # matched: constant velocity from t1
                dts = (timestamps - self.t_start)[:, None, None]
                np.multiply(self.velocities[self.matched[0]], dts, out=positions)
                positions += base[lo:hi]
                out_scores[block].reshape(shape)[...] = base_scores[lo:hi]
            else:
                positions[...] = base[lo:hi]
                np.multiply(
                    base_scores[lo:hi], weights[:, None], out=out_scores[block].reshape(shape)
                )
        return out_index, out_labels, out_positions, out_scores


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
