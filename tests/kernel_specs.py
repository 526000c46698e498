"""Executable specs of the fit's per-sample kernels: their earlier bodies.

ST-PC prediction (``MotionEstimate.predict`` / ``predict_flat``) and the
segment tree's UCB choice (``SegmentTree._select_child``) were rewritten
for speed with the promise that no output changes in any bit.  The
bodies below are the straightforward forms they replaced, kept verbatim
so the differentials compare the live code with something that does not
move when it does:

* :func:`predict_spec` builds the prediction from ``filter`` /
  ``translated`` / ``with_scores`` / ``concatenate``;
* :func:`predict_flat_spec` tiles and repeats per part;
* :func:`select_child_spec` scores each child with ``ucb_score`` and
  draws among the maxima of a numpy array.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.core.bandit import ucb_score
from repro.data import ObjectArray


# ----------------------------------------------------------------------
# ST-PC prediction
# ----------------------------------------------------------------------
def predict_spec(estimate, t: float) -> ObjectArray:
    """``MotionEstimate.predict`` as one ``ObjectArray`` per part."""
    frac = (t - estimate.t_start) / estimate.duration
    conf_appear = float(np.clip(frac, 0.0, 1.0))
    conf_disappear = 1.0 - conf_appear
    parts: list[ObjectArray] = []
    matched_idx = estimate.matched[0]
    if len(matched_idx):
        moved = estimate.objects_start.filter(matched_idx)
        deltas = estimate.velocities[matched_idx] * (t - estimate.t_start)
        parts.append(moved.translated(deltas))
    if estimate.disappearing:
        idx = np.asarray(estimate.disappearing, dtype=np.int64)
        ghosts = estimate.objects_start.filter(idx)
        parts.append(ghosts.with_scores(ghosts.scores * conf_disappear))
    if estimate.appearing:
        idx = np.asarray(estimate.appearing, dtype=np.int64)
        newcomers = estimate.objects_end.filter(idx)
        parts.append(newcomers.with_scores(newcomers.scores * conf_appear))
    return ObjectArray.concatenate(parts)


def predict_flat_spec(estimate, timestamps):
    """``MotionEstimate.predict_flat`` with per-part tile / repeat."""
    timestamps = np.asarray(timestamps, dtype=float)
    n_t = len(timestamps)
    empty = np.zeros(0)
    nothing = (empty.astype(np.int64), np.empty(0, dtype="<U16"), np.zeros((0, 2)), empty)
    if n_t == 0:
        return nothing
    frac = np.clip((timestamps - estimate.t_start) / estimate.duration, 0.0, 1.0)
    labels_parts, position_parts, score_parts, index_parts = [], [], [], []
    start, end = estimate.objects_start, estimate.objects_end
    matched_idx = estimate.matched[0]
    if len(matched_idx):
        base = start.centers[matched_idx, :2]
        vel = estimate.velocities[matched_idx]
        dts = (timestamps - estimate.t_start)[:, None, None]
        positions = base[None, :, :] + vel[None, :, :] * dts
        position_parts.append(positions.reshape(-1, 2))
        labels_parts.append(np.tile(start.labels[matched_idx], n_t))
        score_parts.append(np.tile(start.scores[matched_idx], n_t))
        index_parts.append(np.repeat(np.arange(n_t), len(matched_idx)))
    for source, rows, weights in (
        (start, estimate.disappearing, 1.0 - frac),
        (end, estimate.appearing, frac),
    ):
        if rows:
            idx = np.asarray(rows, dtype=np.int64)
            position_parts.append(np.tile(source.centers[idx, :2], (n_t, 1)))
            labels_parts.append(np.tile(source.labels[idx], n_t))
            score_parts.append((source.scores[idx][None, :] * weights[:, None]).ravel())
            index_parts.append(np.repeat(np.arange(n_t), len(idx)))
    if not labels_parts:
        return nothing
    return (
        np.concatenate(index_parts),
        np.concatenate(labels_parts),
        np.concatenate(position_parts),
        np.concatenate(score_parts),
    )


def same_columns(got, want) -> bool:
    """Equal dtype, shape and bytes, column by column (``None`` matches ``None``)."""
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if a is None or b is None:
            if a is not b:
                return False
        elif a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
            return False
    return True


def object_columns(objects: ObjectArray) -> tuple:
    return (
        objects.labels,
        objects.centers,
        objects.sizes,
        objects.yaws,
        objects.scores,
        objects.velocities,
        objects.ids,
    )


# ----------------------------------------------------------------------
# UCB choice
# ----------------------------------------------------------------------
def select_child_spec(tree, node):
    """``SegmentTree._select_child``: one ``ucb_score`` call per child."""
    children = node.children
    values = np.array(
        [
            ucb_score(child.reward, child.visits, node.visits, tree.ucb_c)
            if not child.exhausted
            else -math.inf
            for child in children
        ]
    )
    best = np.flatnonzero(values == values.max())
    if not len(best) or values.max() == -math.inf:
        raise RuntimeError("selection descended into a fully exhausted node")
    return children[int(tree._rng.choice(best))]


def check_select_child(tree, node, select_child):
    """``select_child(tree, node)``, asserting the spec makes the same
    choice (the same child object, or the same error) and leaves the RNG
    in the same state.  Returns the child."""
    state = copy.deepcopy(tree._rng.bit_generator.state)
    try:
        want = select_child_spec(tree, node)
    except RuntimeError:
        want = None
    spec_state = tree._rng.bit_generator.state
    tree._rng.bit_generator.state = state
    if want is None:
        with pytest.raises(RuntimeError):
            select_child(tree, node)
    else:
        assert select_child(tree, node) is want
    assert tree._rng.bit_generator.state == spec_state
    return want
