"""Executable specs of the fit's per-sample kernels: their earlier bodies.

The assignment (``repro.geometry.matching``), ST-PC prediction
(``MotionEstimate.predict`` / ``predict_flat``) and the segment tree's
UCB choice (``SegmentTree._select_child``) were rewritten for speed with
the promise that no output changes in any bit.  The bodies below are the
straightforward forms they replaced, kept verbatim so the differentials
compare the live code with something that does not move when it does:

* :func:`hungarian_spec` scans every row (no closed-form prefix);
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

WIDE_SCAN_MIN_COLUMNS = 64

_INF = float("inf")


# ----------------------------------------------------------------------
# Assignment
# ----------------------------------------------------------------------
def hungarian_spec(cost) -> list[tuple[int, int]]:
    """Minimum-cost assignment, every row found by a full scan."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if n > m:
        return sorted((row, col) for col, row in hungarian_spec(cost.T))
    if n == 1:
        return [(0, int(np.argmin(cost[0])))]
    if m < WIDE_SCAN_MIN_COLUMNS:
        row_of = assign_narrow_spec(cost.tolist(), n, m)
    else:
        row_of = assign_wide_spec(np.ascontiguousarray(cost), n, m)
    return sorted((row, col) for col, row in enumerate(row_of) if row >= 0)


def assign_narrow_spec(rows: list[list[float]], n: int, m: int) -> list[int]:
    """The e-maxx scan on Python lists, from row 0."""
    u = [0.0] * n
    v = [0.0] * m
    row_of = [-1] * m
    way = [-1] * m
    for i in range(n):
        minv = [_INF] * m
        free = list(range(m))
        tree_cols: list[int] = []
        i0, j0 = i, -1
        while True:
            row = rows[i0]
            u_i0 = u[i0]
            delta = _INF
            j1 = -1
            for j in free:
                cur = row[j] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                else:
                    cur = minv[j]
                if cur < delta:
                    delta = cur
                    j1 = j
            u[i] += delta
            for j in tree_cols:
                u[row_of[j]] += delta
                v[j] -= delta
            free.remove(j1)
            j0 = j1
            i0 = row_of[j0]
            if i0 < 0:
                break
            for j in free:
                minv[j] -= delta
            tree_cols.append(j0)
        while j0 >= 0:
            j1 = way[j0]
            row_of[j0] = row_of[j1] if j1 >= 0 else i
            j0 = j1
    return row_of


def assign_wide_spec(cost: np.ndarray, n: int, m: int) -> list[int]:
    """The e-maxx scan as whole-row numpy operations, from row 0."""
    u = np.zeros(n)
    v = np.zeros(m)
    row_of = [-1] * m
    way = np.empty(m, dtype=np.intp)
    minv = np.empty(m)
    reduced = np.empty(m)
    improved = np.empty(m, dtype=bool)
    tree_rows = np.empty(n, dtype=np.intp)
    tree_cols = np.empty(n, dtype=np.intp)
    tree_v = np.empty(n)
    for i in range(n):
        minv.fill(_INF)
        v_outside = v.copy()
        tree_rows[0] = i
        size = 0
        i0, j0 = i, -1
        while True:
            np.subtract(cost[i0], u[i0], out=reduced)
            np.subtract(reduced, v_outside, out=reduced)
            np.less(reduced, minv, out=improved)
            np.copyto(minv, reduced, where=improved)
            np.copyto(way, j0, where=improved)
            j1 = int(minv.argmin())
            delta = minv[j1]
            u[tree_rows[: size + 1]] += delta
            tree_v[:size] -= delta
            j0 = j1
            i0 = row_of[j0]
            if i0 < 0:
                break
            minv -= delta
            minv[j0] = _INF
            v_outside[j0] = -_INF
            tree_cols[size] = j0
            tree_v[size] = v[j0]
            size += 1
            tree_rows[size] = i0
        v[tree_cols[:size]] = tree_v[:size]
        while j0 >= 0:
            j1 = int(way[j0])
            row_of[j0] = row_of[j1] if j1 >= 0 else i
            j0 = j1
    return row_of


def match_pairs_spec(cost, max_cost: float | None = None) -> list[tuple[int, int]]:
    """``match_pairs`` on :func:`hungarian_spec` (sentinel-masked gate)."""
    cost = np.asarray(cost, dtype=float)
    if max_cost is None or not cost.size:
        return hungarian_spec(cost)
    feasible = np.isfinite(cost) & (cost <= max_cost)
    if not feasible.any():
        return []
    rows = np.flatnonzero(feasible.any(axis=1))
    cols = np.flatnonzero(feasible.any(axis=0))
    sub_feasible = feasible[np.ix_(rows, cols)]
    sub = cost[np.ix_(rows, cols)].copy()
    lo = float(sub[sub_feasible].min())
    span = abs(max_cost) + abs(lo) + 1.0
    sub[~sub_feasible] = min(len(rows), len(cols)) * span + 1.0
    return sorted(
        (int(rows[i]), int(cols[j]))
        for i, j in hungarian_spec(sub)
        if sub_feasible[i, j]
    )


def tracking_costs(rng: np.random.Generator, n: int, *, extent: float = 60.0):
    """Centre distances of a scene and its next frame: every object moved
    a little (jitter), some died and some were born.

    The shape of ST-PC's matrices: most rows' nearest column is their own
    object, which no other row wants.
    """
    start = rng.uniform(-extent, extent, size=(n, 2))
    survivors = start[rng.random(n) >= rng.uniform(0.0, 0.3)]
    moved = survivors + rng.normal(0.0, rng.uniform(0.05, 2.0), size=survivors.shape)
    births = rng.uniform(-extent, extent, size=(int(rng.integers(0, n // 3 + 2)), 2))
    end = np.concatenate([moved, births])[rng.permutation(len(moved) + len(births))]
    diff = start[:, None, :] - end[None, :, :]
    return np.sqrt(np.add.reduce(diff * diff, axis=2))


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
