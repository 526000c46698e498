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

The algorithm grows, for each row in turn, an alternating tree of
matched columns until it reaches a free column: every step scans the
columns outside the tree for the smallest reduced cost, shifts the dual
potentials by it, and adds that column.  The scan is the hot loop, and
the two matrix scales the system sees want it written differently (see
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
#: cross-over on Euclidean-distance costs is ~64 columns; the captured
#: vehicle-scale matrices are at most 47 wide, the city-scale ones that
#: matter 180-203.
WIDE_SCAN_MIN_COLUMNS = 64

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


# Both kernels below are the potentials formulation after the classic
# e-maxx/CP presentation, 0-indexed with -1 for its virtual root column:
# u/v are the dual potentials, row_of[j] the row matched to column j (-1
# = free), way[j] the predecessor column on the alternating path, minv[j]
# the smallest reduced cost seen from the tree to column j.  For
# 2 <= n <= m they return row_of.


def _assign_narrow(rows: list[list[float]], n: int, m: int) -> list[int]:
    """The assignment of ``rows`` (``cost.tolist()``), scanning in Python."""
    u = [0.0] * n
    v = [0.0] * m
    row_of = [-1] * m
    way = [-1] * m
    for i in range(n):
        minv = [_INF] * m
        free = list(range(m))  # columns outside the tree, ascending
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


def _assign_wide(cost: np.ndarray, n: int, m: int) -> list[int]:
    """The assignment of ``cost``, each scan as whole-row numpy operations."""
    u = np.zeros(n)
    v = np.zeros(m)
    row_of = [-1] * m
    way = np.empty(m, dtype=np.intp)
    minv = np.empty(m)
    reduced = np.empty(m)
    improved = np.empty(m, dtype=bool)
    tree_rows = np.empty(n, dtype=np.intp)
    tree_cols = np.empty(n, dtype=np.intp)
    tree_v = np.empty(n)  # v of the tree's columns, written back per row
    for i in range(n):
        minv.fill(_INF)
        # A column's entry turns -inf when it joins the tree, so its
        # reduced cost reads +inf: it never improves and, with its minv
        # at +inf too, never wins the argmin.  v of a column outside the
        # tree does not change while the tree grows.
        v_outside = v.copy()
        tree_rows[0] = i
        size = 0  # columns in the tree; rows in the tree = size + 1
        i0, j0 = i, -1
        while True:
            np.subtract(cost[i0], u[i0], out=reduced)
            np.subtract(reduced, v_outside, out=reduced)
            np.less(reduced, minv, out=improved)
            np.copyto(minv, reduced, where=improved)
            np.copyto(way, j0, where=improved)
            j1 = int(minv.argmin())  # first minimum, as the narrow scan
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
