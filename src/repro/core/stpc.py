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

Both halves run over a batch of pairs in one pass, because an index
build needs one estimate per gap and the rows of every gap (see
``docs/performance.md``): :func:`analyze_pairs` matches every pair's
same-label blocks together, and :func:`predict_gaps` expands every
gap's rows from one segment table.  :func:`match_by_label`,
:func:`analyze_pair` and :meth:`MotionEstimate.predict_flat` are their
one-pair and one-gap calls.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
import numpy as np

from repro.data.annotations import ObjectArray
from repro.geometry.matching import match_pairs

__all__ = [
    "MotionEstimate",
    "analyze_pair",
    "analyze_pairs",
    "match_by_label",
    "predict_gaps",
]

#: Cost entries computed at once.  A batch's blocks are taken in runs
#: of at most this many entries, and a block wider than that alone, so a
#: wide city block costs the temporaries it cost on its own.
BATCH_COST_ENTRIES = 1 << 14


def _rows_by_label(labels: np.ndarray, first: int) -> dict[str, list[int]]:
    """``label -> ascending row indices`` (from ``first`` on) in one pass."""
    groups: dict[str, list[int]] = {}
    for row, label in enumerate(labels.tolist(), first):
        groups.setdefault(label, []).append(row)
    return groups


def _require_finite(cost: np.ndarray) -> None:
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix must contain only finite values")


def _match(
    starts: Sequence[ObjectArray],
    ends: Sequence[ObjectArray],
    max_distance: float | None,
) -> tuple[list[list[tuple[int, int]]], np.ndarray]:
    """Hungarian matching restricted to same-label pairs, for every pair.

    Returns ``(found, centers)``: ``centers`` stacks every start set's
    centers, then every end set's, and ``found[p]`` lists pair ``p``'s
    matched ``(start row, end row)`` pairs as rows of it, sorted.
    "We only match objects with the same category", so each pair's
    matching runs independently per label, on that label's block of
    center distances, oriented rows <= columns as
    :func:`~repro.geometry.matching.hungarian` orients it.  All blocks'
    costs are computed together, in runs of at most
    :data:`BATCH_COST_ENTRIES`.  Without a gate, a block whose rows'
    first-minimum columns are all distinct is settled by them: the
    Jonker–Volgenant scan of a row whose first-minimum column is free
    takes that column while the column duals are still 0, so it grows no
    tree and moves no dual, and the next row starts from the same state.
    Every other block, and with a gate every block, is solved by
    :func:`~repro.geometry.matching.match_pairs`.
    """
    centers = np.concatenate([objects.centers for objects in chain(starts, ends)])
    # Each block: (pair, tall, row side's rows, column side's rows), as
    # flat rows of ``centers`` (start sets first, then end sets).
    blocks: list[tuple[int, bool, list[int], list[int]]] = []
    a0, b0 = 0, sum(map(len, starts))
    for p, (objects_start, objects_end) in enumerate(zip(starts, ends)):
        rows_a = _rows_by_label(objects_start.labels, a0)
        rows_b = _rows_by_label(objects_end.labels, b0)
        for label in sorted(rows_a.keys() & rows_b.keys()):
            ia, ib = rows_a[label], rows_b[label]
            tall = len(ia) > len(ib)
            blocks.append((p, tall, ib, ia) if tall else (p, False, ia, ib))
        a0 += len(objects_start)
        b0 += len(objects_end)

    found: list[list[tuple[int, int]]] = [[] for _ in starts]
    lo = 0
    while lo < len(blocks):
        # One run of blocks: per block row its flat row, its block's
        # width, its first entry and the shift from its entries to its
        # block's columns in ``col_rows``.
        row_rows: list[int] = []
        widths: list[int] = []
        row_first: list[int] = []
        col_shift: list[int] = []
        col_rows: list[int] = []
        hi, entry = lo, 0
        while hi < len(blocks):
            _, _, rows, cols = blocks[hi]
            r, c = len(rows), len(cols)
            if hi > lo and entry + r * c > BATCH_COST_ENTRIES:
                break
            row_rows.extend(rows)
            widths.extend([c] * r)
            row_first.extend(range(entry, entry + r * c, c))
            col_shift.extend(range(len(col_rows) - entry, len(col_rows) - entry - r * c, -c))
            col_rows.extend(cols)
            entry += r * c
            hi += 1
        # ``np.linalg.norm(diff, axis=-1)``'s own formula, without its
        # dispatch: the same values bit for bit.  A block alone in its
        # run (a wide one, or a pair's only label) broadcasts its rows
        # against its columns and takes its rows' first minima with
        # ``argmin``: no per-entry index arrays.
        alone = hi - lo == 1
        if alone:
            diff = np.take(centers, row_rows, axis=0)[:, None, :]
            diff = diff - np.take(centers, col_rows, axis=0)
            cost = np.sqrt(np.add.reduce(diff * diff, axis=2)).ravel()
        else:
            width = np.array(widths)
            col = np.array(col_rows)[np.array(col_shift).repeat(width) + np.arange(entry)]
            diff = np.take(centers, np.array(row_rows).repeat(width), axis=0)
            diff -= np.take(centers, col, axis=0)
            cost = np.sqrt(np.add.reduce(diff * diff, axis=1))
        # ``hungarian``'s finiteness check.  A lone block is checked only
        # if it settles (``hungarian`` checks the others): a wide block's
        # costs are read once more, not twice.
        unchecked = False
        if max_distance is None:
            if alone:
                first_min = cost.reshape(len(row_rows), -1).argmin(axis=1).tolist()
                unchecked = True
            else:
                _require_finite(cost)
                starts_at = np.array(row_first)
                row_min = np.minimum.reduceat(cost, starts_at)
                (at_min,) = (cost == row_min.repeat(width)).nonzero()
                first_min = (at_min[at_min.searchsorted(starts_at)] - starts_at).tolist()

        row = entry = 0
        for p, tall, rows, cols in blocks[lo:hi]:
            r, c = len(rows), len(cols)
            # The block's (row, column) assignment, in its orientation.
            picks = first_min[row : row + r] if max_distance is None else []
            if len(set(picks)) == r:
                if unchecked:
                    _require_finite(cost)
                solved = list(enumerate(picks))
            else:
                block = cost[entry : entry + r * c].reshape(r, c)
                if tall:  # ``match_pairs`` gets the caller's orientation
                    solved = [(j, i) for i, j in match_pairs(block.T, max_distance)]
                else:
                    solved = match_pairs(block, max_distance)
            if tall:
                found[p].extend((cols[j], rows[i]) for i, j in solved)
            else:
                found[p].extend((rows[i], cols[j]) for i, j in solved)
            row, entry = row + r, entry + r * c
        lo = hi
    for pairs in found:
        pairs.sort()
    return found, centers


def match_by_label(
    objects_a: ObjectArray,
    objects_b: ObjectArray,
    *,
    max_distance: float | None = None,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Hungarian matching restricted to same-label pairs (Alg. 1 line 6).

    Returns ``(pairs, unmatched_a, unmatched_b)`` with indices into the
    original arrays, pairs sorted: the one-pair call of the matching
    :func:`analyze_pairs` batches.  Each side's labels are grouped once
    per call; nothing is cached on the object sets, which are pickled
    into checkpoints and fingerprints.
    """
    (pairs,), _ = _match([objects_a], [objects_b], max_distance)
    n_a = len(objects_a)
    pairs = [(i, j - n_a) for i, j in pairs]
    matched_a = {i for i, _ in pairs}
    matched_b = {j for _, j in pairs}
    return (
        pairs,
        [i for i in range(n_a) if i not in matched_a],
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
        tuples: an index keeps one estimate per gap alive.
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
        timestamp by timestamp and, within a timestamp, in :meth:`predict`'s
        order (matched, disappearing, appearing).  The one-gap call of
        :func:`predict_gaps`.
        """
        return predict_gaps([self], [np.asarray(timestamps, dtype=float)])[1:]


def predict_gaps(
    estimates: Sequence[MotionEstimate], timestamps: Sequence[np.ndarray]
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alg. 3 line 5 for a batch of gaps: every gap's predicted rows.

    ``timestamps[g]`` (float64) are the times gap ``g``'s estimate
    predicts.  Returns ``(ends, time_index, labels, positions,
    scores)``: gap ``g`` owns rows ``[ends[g - 1], ends[g])`` (from 0
    for the first), laid out exactly as :meth:`MotionEstimate.predict_flat`
    lays out one gap — time by time, and per time its matched,
    disappearing and appearing boxes — and ``time_index`` indexes the
    concatenated ``timestamps``, so it never decreases within a gap.
    Every row comes from one segment table — one segment per predicted
    box of a gap: its source row (label, base xy, base score), velocity
    and part (matched, disappearing, appearing) — with the float64
    operations ``predict_flat`` applies to one gap.
    """
    # The segment table, gap by gap and box by box.  A segment's source
    # is a flat row of the distinct detection sets (consecutive gaps
    # share one), its speed a flat row of the gaps' velocities (row 0, a
    # zero, for a box that is not matched).  Each gap with rows is one
    # block ``(first segment, boxes, times, first time)``.
    first_of: dict[int, int] = {}
    sets: list[ObjectArray] = []
    source: list[int] = []
    speed: list[int] = []
    part_of: list[int] = []
    velocities: list[np.ndarray] = [np.zeros((1, 2))]
    blocks: list[tuple[int, int, int, int]] = []
    label_types = set()
    ends: list[int] = []
    n_source = n_rows = first_time = 0
    n_speed = 1
    for e, times in zip(estimates, timestamps):
        n_t = len(times)
        if n_t:
            for objects in (e.objects_start, e.objects_end):
                if id(objects) not in first_of:
                    first_of[id(objects)] = n_source
                    sets.append(objects)
                    n_source += len(objects.labels)
            s0, e0 = first_of[id(e.objects_start)], first_of[id(e.objects_end)]
            matched = e.matched[0].tolist()
            gap_boxes = [s0 + i for i in matched]
            gap_boxes += [s0 + i for i in e.disappearing]
            n_matched, n_start = len(matched), len(gap_boxes)
            gap_boxes += [e0 + j for j in e.appearing]
            if gap_boxes:
                blocks.append((len(source), len(gap_boxes), n_t, first_time))
                source += gap_boxes
                n_rows += len(gap_boxes) * n_t
            part_of += [0] * n_matched + [1] * (n_start - n_matched)
            part_of += [2] * (len(gap_boxes) - n_start)
            speed += [n_speed + i for i in matched]
            speed += [0] * (len(gap_boxes) - n_matched)
            velocities.append(e.velocities)
            n_speed += len(e.velocities)
            if n_start:
                label_types.add(e.objects_start.labels.dtype)
            if e.appearing:
                label_types.add(e.objects_end.labels.dtype)
        first_time += n_t
        ends.append(n_rows)
    if not n_rows:
        return (
            ends,
            np.zeros(0, dtype=np.int64),
            np.empty(0, dtype="<U16"),
            np.zeros((0, 2)),
            np.zeros(0),
        )

    # Rows: per block, its times one by one, and per time its boxes.
    first_segment, boxes, ticks, block_time = np.array(blocks, dtype=np.int64).T
    rows_of = boxes * ticks
    block = np.repeat(np.arange(len(blocks)), rows_of)
    segment = np.arange(n_rows)
    segment -= np.repeat(np.cumsum(rows_of) - rows_of, rows_of)  # row within its block
    width = boxes[block]
    tick = segment // width
    segment -= tick * width  # box within its block
    segment += first_segment[block]
    time_index = block_time[block]
    time_index += tick
    part = np.array(part_of)[segment]
    del block, width, tick

    times = np.concatenate(timestamps)
    n_times = [len(t) for t in timestamps]
    t_start = np.repeat([e.t_start for e in estimates], n_times)
    elapsed = times - t_start
    t_end = np.repeat([e.t_end for e in estimates], n_times)
    frac = np.clip(elapsed / (t_end - t_start), 0.0, 1.0)
    weights = np.concatenate([np.ones_like(frac), 1.0 - frac, frac])

    # (``np.take``: a fancy index of a 2-D array costs ~15x as much.)
    rows_source = np.array(source)[segment]
    base = np.concatenate([objects.centers for objects in sets])[:, :2]
    positions = np.take(np.ascontiguousarray(base), rows_source, axis=0)
    moved = np.take(np.concatenate(velocities), np.array(speed)[segment], axis=0)
    moved *= elapsed[time_index, None]
    moved += positions
    np.copyto(positions, moved, where=(part == 0)[:, None])
    del moved
    scores = np.concatenate([objects.scores for objects in sets])[rows_source]
    scores *= np.take(weights, part * len(times) + time_index)
    labels = np.concatenate([objects.labels for objects in sets if len(objects.labels)])
    # The dtype ``predict_flat`` gives one gap's labels: the promotion
    # of the sets that contribute rows.
    labels = np.take(labels, rows_source).astype(np.result_type(*label_types), copy=False)
    return ends, time_index, labels, positions, scores


def analyze_pairs(
    pairs: Sequence[tuple[ObjectArray, ObjectArray, float, float]],
    *,
    max_distance: float | None = None,
) -> list[MotionEstimate]:
    """Run Alg. 1 on a batch of ``(objects_start, objects_end, t_start,
    t_end)`` pairs, one estimate each.

    Matched boxes get velocity ``(c2 - c1) / (t2 - t1)``; all unmatched
    boxes get velocity 0 and enter the disappearing/appearing lists.
    All pairs are matched in one pass (``_match``), and the velocities
    of all matched boxes are one expression.
    """
    for _, _, t_start, t_end in pairs:
        if not t_end > t_start:
            raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    if not pairs:
        return []
    starts = [pair[0] for pair in pairs]
    found, centers = _match(starts, [pair[1] for pair in pairs], max_distance)
    rows = [i for matched in found for i, _ in matched]
    cols = [j for matched in found for _, j in matched]
    dt = [
        t_end - t_start
        for (_, _, t_start, t_end), matched in zip(pairs, found)
        for _ in matched
    ]
    n_start = sum(map(len, starts))
    velocities = np.zeros((n_start, 2))
    moved = np.take(centers, cols, axis=0) - np.take(centers, rows, axis=0)
    velocities[rows] = moved[:, :2] / np.array(dt)[:, None]
    estimates = []
    a0, b0 = 0, n_start  # each pair's first start and end row of ``centers``
    for (objects_start, objects_end, t_start, t_end), matched in zip(pairs, found):
        n_a, n_b = len(objects_start), len(objects_end)
        taken_a = [i - a0 for i, _ in matched]
        taken_b = [j - b0 for _, j in matched]
        estimates.append(
            MotionEstimate(
                objects_start=objects_start,
                objects_end=objects_end,
                t_start=float(t_start),
                t_end=float(t_end),
                matched=np.array([taken_a, taken_b], dtype=np.int64),
                velocities=velocities[a0 : a0 + n_a],
                disappearing=tuple(sorted(set(range(n_a)).difference(taken_a))),
                appearing=tuple(sorted(set(range(n_b)).difference(taken_b))),
            )
        )
        a0, b0 = a0 + n_a, b0 + n_b
    return estimates


def analyze_pair(
    objects_start: ObjectArray,
    objects_end: ObjectArray,
    t_start: float,
    t_end: float,
    *,
    max_distance: float | None = None,
) -> MotionEstimate:
    """Run Alg. 1 on the detections of two sampled frames: the one-pair
    call of :func:`analyze_pairs`."""
    return analyze_pairs(
        [(objects_start, objects_end, t_start, t_end)], max_distance=max_distance
    )[0]

