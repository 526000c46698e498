"""Evaluation metrics (paper §7.1).

* **F1 score** for retrieval queries, with the Oracle method's result
  set as ground truth;
* **aggregate accuracy** ``1 - |gt - pred| / gt`` for aggregate queries.

Both treat the Oracle's answers (full deep-model processing) as truth,
exactly as the paper does.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

#: Frame-id collections the metrics accept: sets, arrays, lists.
IdLike = Iterable[int] | np.ndarray

__all__ = [
    "precision_recall_f1",
    "f1_score",
    "aggregate_accuracy",
    "selectivity",
]


def _as_id_set(ids: IdLike) -> set[int]:
    if isinstance(ids, set):
        return ids
    return set(int(i) for i in np.asarray(ids).ravel())


def _as_id_array(ids: IdLike) -> np.ndarray | None:
    """Sorted, unique int64 ids, or ``None`` unless ``ids`` are signed ints.

    Sets (which may hold non-integer ids such as a corpus's
    ``(sequence, frame)`` pairs) and other arrays return ``None``.
    """
    array = np.asarray(ids)
    if array.dtype.kind != "i":
        return None
    array = array.astype(np.int64, copy=False).ravel()
    # Query results arrive sorted and unique; checking is ~100x cheaper
    # than ``np.unique`` on them.
    if array.size > 1 and not (array[1:] > array[:-1]).all():
        array = np.unique(array)
    return array


def _id_counts(predicted_ids: IdLike, true_ids: IdLike) -> tuple[int, int, int]:
    """``(|predicted & truth|, |predicted|, |truth|)`` with set semantics.

    Two signed-integer id arrays are counted on sorted arrays; anything else
    falls back to Python sets.
    """
    predicted = _as_id_array(predicted_ids)
    truth = _as_id_array(true_ids)
    if predicted is None or truth is None:
        predicted_set = _as_id_set(predicted_ids)
        truth_set = _as_id_set(true_ids)
        return len(predicted_set & truth_set), len(predicted_set), len(truth_set)
    true_positive = np.intersect1d(predicted, truth, assume_unique=True).size
    return int(true_positive), int(predicted.size), int(truth.size)


def precision_recall_f1(
    predicted_ids: IdLike, true_ids: IdLike
) -> tuple[float, float, float]:
    """Precision, recall and F1 of a predicted frame-id set.

    Follows the paper's conventions: when the true set is empty, any
    prediction is all false positives (precision 0 unless also empty);
    an empty prediction against an empty truth scores a perfect 1.0.
    Duplicate ids count once, as in a set.
    """
    true_positive, n_predicted, n_truth = _id_counts(predicted_ids, true_ids)
    if not n_predicted and not n_truth:
        return 1.0, 1.0, 1.0
    precision = true_positive / n_predicted if n_predicted else 0.0
    recall = true_positive / n_truth if n_truth else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def f1_score(predicted_ids: IdLike, true_ids: IdLike) -> float:
    """F1 of a predicted frame-id set against the truth set."""
    return precision_recall_f1(predicted_ids, true_ids)[2]


def aggregate_accuracy(predicted: float, truth: float) -> float:
    """``1 - |truth - predicted| / truth``, clamped to ``[0, 1]``.

    A zero ground truth is handled as an exact-match test (accuracy 1.0
    only when the prediction is also 0), since the paper's relative
    formula is undefined there.
    """
    predicted = float(predicted)
    truth = float(truth)
    if truth == 0.0:
        return 1.0 if predicted == 0.0 else 0.0
    return float(np.clip(1.0 - abs(truth - predicted) / abs(truth), 0.0, 1.0))


def selectivity(cardinality: int, n_frames: int) -> float:
    """Fraction of frames a retrieval query returns."""
    if n_frames <= 0:
        raise ValueError(f"n_frames must be positive, got {n_frames}")
    return cardinality / n_frames
