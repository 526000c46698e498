"""Hungarian (Kuhn–Munkres) assignment, implemented from scratch.

The paper's ST-PC analysis (Alg. 1, line 6) and its reward computation
(Eq. 1) both rely on minimum-cost bipartite matching between two sets of
bounding boxes.  This module provides:

* :func:`hungarian` — the O(n^3) potentials formulation of the Hungarian
  algorithm for dense rectangular cost matrices (rows <= columns handled
  by transposition), cross-validated against
  ``scipy.optimize.linear_sum_assignment`` in the test suite;
* :func:`match_pairs` — the detection-matching wrapper that discards
  assigned pairs whose cost exceeds a gating threshold, which is how
  tracking-by-detection avoids matching unrelated objects;
* :func:`match_with_threshold` — the same pairs plus the unmatched rows
  and columns.

The algorithm is the shortest-augmenting-path form of Jonker and
Volgenant: for each row in turn it grows a tree of matched columns, in
the order of their shortest path length from the row, until it reaches a
free column, and only then moves the dual potentials, once for the
whole tree.  Growing the tree is the hot loop, and the two matrix scales
the system sees want it written differently (see
``docs/performance.md``): vehicle-scale scenes produce thousands of
matrices a few columns wide, where any numpy call costs more than the
whole scan, and city-scale scenes a few matrices ~200 columns wide, where
a per-element Python loop is the whole fit.  :func:`_assign_narrow` runs
the scan on plain Python lists and :func:`_assign_wide` as whole-row
numpy operations; both perform the same float64 operations in the same
order with the same first-minimum tie-break, so they return the same
assignment, and :data:`WIDE_SCAN_MIN_COLUMNS` picks between them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hungarian", "match_pairs", "match_with_threshold"]

#: Matrices with at least this many columns (after transposition to
#: rows <= columns) scan with whole-row numpy operations.  The measured
#: cross-over on Euclidean-distance costs is 36-40 columns; the captured
#: vehicle-scale matrices are at most 47 wide, the city-scale ones that
#: matter 180-203.
WIDE_SCAN_MIN_COLUMNS = 40

_INF = float("inf")


def hungarian(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost assignment for a dense cost matrix.

    Parameters
    ----------
    cost:
        ``(n, m)`` array of finite costs.  Every row (if ``n <= m``) or
        every column (if ``n > m``) receives exactly one partner; the
        smaller side is matched completely.

    Returns
    -------
    list of ``(row, col)`` pairs sorted by row index.  The number of pairs
    is ``min(n, m)``.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a 2-D matrix, got shape {cost.shape}")
    n, m = cost.shape
    if n == 0 or m == 0:
        return []
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must contain only finite values")
    tall = n > m
    if tall:  # solve the transpose; the pairs are mirrored back below
        cost, n, m = cost.T, m, n
    if n == 1:
        # Single row: the optimum is the cheapest column.  ``argmin``
        # returns the first minimum, matching the full algorithm's
        # strict-improvement tie-breaking.
        col = int(np.argmin(cost[0]))
        return [(col, 0)] if tall else [(0, col)]
    if m < WIDE_SCAN_MIN_COLUMNS:
        row_of = _assign_narrow(cost.tolist(), n, m)
    else:
        row_of = _assign_wide(np.ascontiguousarray(cost), n, m)
    if tall:  # row_of is indexed by the caller's rows, so already in order
        return [(row, col) for row, col in enumerate(row_of) if col >= 0]
    return sorted((row, col) for col, row in enumerate(row_of) if row >= 0)


# Both kernels below are the shortest-augmenting-path (Dijkstra) form of
# the potentials formulation (Jonker & Volgenant, Computing 38, 1987),
# 0-indexed with -1 for the virtual root column.  u/v are the dual
# potentials, row_of[j] the row matched to column j (-1 = free), way[j]
# the predecessor column on the alternating path (the narrow scan's
# record of it; the wide scan recomputes it), d[j] the length of the
# shortest path found so far from row i to column j, in absolute terms
# (reduced costs under the duals as they stood when row i began).  The
# duals stay fixed while the tree grows: a row that joins the tree at
# path length dist relaxes d[j] = (c[i0][j] - v[j]) + (dist - u[i0]) over
# the columns outside the tree, and the column with the smallest d joins
# next (the first one on ties; way changes only on a strict improvement).
# The scan stops at the first free column it reaches.  Only then do the
# duals move, once per row: u[i] += dist and, for each tree column j,
# u[row_of[j]] += dist - d[j], v[j] -= dist - d[j].  For 2 <= n <= m they
# return row_of.


def _assign_narrow(rows: list[list[float]], n: int, m: int) -> list[int]:
    """The assignment of ``rows`` (``cost.tolist()``), scanning in Python."""
    u = [0.0] * n
    v = [0.0] * m
    row_of = [-1] * m
    way = [-1] * m
    for i in range(n):
        d = [_INF] * m
        free = list(range(m))  # columns outside the tree, ascending
        tree_cols: list[int] = []
        i0, j0, dist = i, -1, 0.0
        while True:
            row = rows[i0]
            offset = dist - u[i0]
            dist = _INF
            j1 = -1
            for j in free:
                cur = row[j] - v[j] + offset
                if cur < d[j]:
                    d[j] = cur
                    way[j] = j0
                else:
                    cur = d[j]
                if cur < dist:
                    dist = cur
                    j1 = j
            free.remove(j1)
            j0 = j1
            i0 = row_of[j0]
            if i0 < 0:
                break
            tree_cols.append(j0)
        u[i] += dist
        for j in tree_cols:
            delta = dist - d[j]
            u[row_of[j]] += delta
            v[j] -= delta
        while j0 >= 0:
            j1 = way[j0]
            row_of[j0] = row_of[j1] if j1 >= 0 else i
            j0 = j1
    return row_of


def _assign_wide(cost: np.ndarray, n: int, m: int) -> list[int]:
    """The assignment of ``cost``, each scan as whole-row numpy operations."""
    u = [0.0] * n
    v = np.zeros(m)
    row_of = [-1] * m
    d = np.empty(m)
    reduced = np.empty(m)
    for i in range(n):
        d.fill(_INF)
        # A column's entry turns -inf when it joins the tree, so its
        # reduced cost reads +inf: with its d at +inf too, it never wins
        # the argmin again.
        v_outside = v.copy()
        tree_rows = [i]
        offsets: list[float] = []  # dist - u[i0] of each tree row's scan
        tree_cols: list[int] = []
        joined: list[float] = []  # d of each tree column as it joined
        i0, dist = i, 0.0
        while True:
            offset = dist - u[i0]
            offsets.append(offset)
            np.subtract(cost[i0], v_outside, out=reduced)
            np.add(reduced, offset, out=reduced)
            np.minimum(d, reduced, out=d)
            j0 = int(d.argmin())  # first minimum, as the narrow scan
            dist = float(d[j0])
            i0 = row_of[j0]
            if i0 < 0:
                break
            d[j0] = _INF
            v_outside[j0] = -_INF
            tree_rows.append(i0)
            tree_cols.append(j0)
            joined.append(dist)
        # No way array: a column's predecessor is the first tree row whose
        # scan reached it at its final d (the step the narrow scan records
        # in way), recomputed with the scan's arithmetic before v moves.
        # The first ``steps`` tree rows scanned while j0 was outside.
        steps = len(tree_rows)
        if steps > 1:
            at_rows = np.array(tree_rows)
            at_offsets = np.array(offsets)
        while steps > 1:
            reach = cost[at_rows[:steps], j0] - v[j0]
            reach += at_offsets[:steps]
            k = int(reach.argmin())
            if k == 0:
                break
            pred = tree_cols[k - 1]
            row_of[j0] = row_of[pred]
            j0, steps = pred, k
        row_of[j0] = i
        u[i] += dist
        for j, row, at in zip(tree_cols, tree_rows[1:], joined):
            delta = dist - at
            u[row] += delta
            v[j] -= delta
    return row_of


def match_pairs(
    cost: np.ndarray, max_cost: float | None = None
) -> list[tuple[int, int]]:
    """Hungarian matching with optional cost gating; the pairs only.

    With ``max_cost`` set, entries above the gate (or non-finite — an
    explicit "cannot match" marker) are treated as infeasible *before*
    the assignment: rows/columns with no feasible partner are pruned,
    and the remaining infeasible entries are masked to a finite sentinel
    large enough that the optimum never prefers one over any feasible
    assignment.  Pairs landing on a sentinel are dropped afterwards.
    """
    cost = np.asarray(cost, dtype=float)
    if max_cost is None or not cost.size:
        return hungarian(cost)
    return _gated_pairs(cost, float(max_cost))


def match_with_threshold(
    cost: np.ndarray, max_cost: float | None = None
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """:func:`match_pairs` plus the rows and columns it left unmatched.

    Returns ``(pairs, unmatched_rows, unmatched_cols)`` — the
    decomposition Alg. 1 needs to assign velocities to matched boxes and
    handle disappearing/appearing ones.
    """
    cost = np.asarray(cost, dtype=float)
    pairs = match_pairs(cost, max_cost)
    matched_rows = {i for i, _ in pairs}
    matched_cols = {j for _, j in pairs}
    unmatched_rows = [i for i in range(cost.shape[0]) if i not in matched_rows]
    unmatched_cols = [j for j in range(cost.shape[1]) if j not in matched_cols]
    return pairs, unmatched_rows, unmatched_cols


def _gated_pairs(cost: np.ndarray, max_cost: float) -> list[tuple[int, int]]:
    """Assignment pairs whose cost passes the gate, via sentinel masking."""
    feasible = np.isfinite(cost) & (cost <= max_cost)
    if not feasible.any():
        return []
    rows = np.flatnonzero(feasible.any(axis=1))
    cols = np.flatnonzero(feasible.any(axis=0))
    sub_feasible = feasible[np.ix_(rows, cols)]
    sub = cost[np.ix_(rows, cols)].copy()
    # A sentinel so large that swapping any feasible pair for a sentinel
    # pair always raises the total: one sentinel outweighs the span of
    # min(n, m) feasible entries.
    lo = float(sub[sub_feasible].min())
    span = abs(max_cost) + abs(lo) + 1.0
    sentinel = min(len(rows), len(cols)) * span + 1.0
    sub[~sub_feasible] = sentinel
    return sorted(
        (int(rows[i]), int(cols[j]))
        for i, j in hungarian(sub)
        if sub_feasible[i, j]
    )
