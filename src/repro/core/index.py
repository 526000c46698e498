"""The MAST index (paper Alg. 3) and the linear count provider.

After sampling, the index stores — for every frame in the sequence —
either the deep model's detections (sampled frames) or the ST-PC
predicted boxes (unsampled frames, Alg. 3 line 5).  Precomputing the
predictions once is what makes ST-based query processing cheap: the
paper reports the index makes ST prediction ~2x faster by "preventing
repeated computation".

Internally the per-object rows of all frames are flattened into parallel
columns (:class:`~repro.query.predicates.ObjectRows`: frame index,
label, position, confidence), so a count series for any object filter is
one vectorized mask + ``bincount``.  The first region-shaped count
series also organizes the rows into a BEV
:class:`~repro.spatial.SpatialTileIndex`, and region-shaped series route
through it from then on — pruning tiles outside the predicate and
answering fully covered tiles from per-tile count summaries, with
bit-identical results.  An index that is never asked such a query never
builds its tiles; the successor of one that did is built with tiles.

Two :class:`~repro.query.engine.CountProvider` implementations live
here:

* :class:`MASTIndex` itself — per-frame counts from the indexed boxes
  (ST-based prediction, Eq. 3/4 applied to ``B^e_t``);
* :class:`LinearCountProvider` — Seiden-style linear interpolation of
  the counts measured at sampled frames (§5.3, Example 5.3).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType

import numpy as np

from repro.core import stpc
from repro.core.config import MASTConfig
from repro.core.sampler import Installed, SamplingResult
from repro.core.stpc import MotionEstimate
from repro.data.annotations import ObjectArray
from repro.query.predicates import ObjectFilter, ObjectRows, SpatialPredicate
from repro.utils.timing import STAGE_INDEX, CostLedger

__all__ = [
    "MASTIndex",
    "LinearCountProvider",
    "SIMULATED_INDEX_COST_PER_FRAME",
    "SIMULATED_QUERY_COST_ST",
    "SIMULATED_QUERY_COST_LINEAR",
]

#: Simulated indexing seconds per frame: ~0.5 s for a 4,500-frame
#: sequence, matching the paper's reported indexing cost (§7.2, RQ2).
SIMULATED_INDEX_COST_PER_FRAME = 1.1e-4
#: Simulated per-query seconds per frame.  At the paper's default
#: |D| ~ 4,500: ST prediction ~0.07 s/query, linear ~0.03 s/query (§6.1).
SIMULATED_QUERY_COST_ST = 1.55e-5
SIMULATED_QUERY_COST_LINEAR = 6.6e-6


def _region_shaped(object_filter: ObjectFilter) -> bool:
    """Whether tiles can prune for this filter: any spatial filter but a
    plain distance cut, which one shared distance scan answers faster."""
    spatial = object_filter.spatial
    return spatial is not None and not isinstance(spatial, SpatialPredicate)


class MASTIndex:
    """Per-frame (real or ST-predicted) object sets in flat-column form.

    Also the ST-prediction count provider (Eq. 3/4).

    # guarded-by: _tile_lock: spatial_index
    """

    simulated_query_cost_per_frame = SIMULATED_QUERY_COST_ST

    def __init__(
        self,
        n_frames: int,
        timestamps: np.ndarray,
        sampled_ids: np.ndarray,
        rows: ObjectRows,
        estimates: dict[tuple[int, int], MotionEstimate],
        detections: dict[int, ObjectArray],
        gate: float | None = None,
        spatial_index=None,
        tail: MotionEstimate | None = None,
        columns: _Columns | None = None,
    ) -> None:
        self.n_frames = int(n_frames)
        self.timestamps = np.asarray(timestamps, dtype=float)
        self.sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
        #: Flat columns in frame order (a gap's or the tail's rows time
        #: by time, each time's boxes as :meth:`MotionEstimate.predict`
        #: orders them), so the rows of frames ``[a, b)`` are
        #: ``frame_index.searchsorted([a, b])`` and the tail of a longer
        #: stream extends this one's.
        self._rows = rows
        #: The buffer ``_rows`` views, when a build made it; a successor
        #: that only adds rows past this index's appends to it.
        self._columns = columns
        #: Gap -> its motion estimate, in sample order.
        self._estimates = estimates
        self._detections = detections
        #: The matching gate the estimates were analysed under.
        self._gate = gate
        #: The last gap's estimate, which extrapolates the frames after
        #: the last sample (``None`` when the last frame is sampled).
        self._tail = tail
        #: The :class:`~repro.spatial.SpatialTileIndex` over the flat
        #: columns once a count series has routed through it (or the one
        #: ``build`` made because the previous index had tiles); ``None``
        #: until then.
        self.spatial_index = spatial_index
        self._tile_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Construction (Alg. 3)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        result: SamplingResult,
        config: MASTConfig | None = None,
        *,
        ledger: CostLedger | None = None,
        previous: MASTIndex | None = None,
    ) -> MASTIndex:
        """Run Alg. 3 over a sampling result.

        For every gap between consecutive sampled frames the ST-PC motion
        estimate predicts the object set of each interior frame; sampled
        frames contribute their raw detections.  Frames after the last
        sample (the open tail of a live, growing sampling) are
        extrapolated by the last gap's estimate, with its confidence
        factors clamped.

        Every gap the build does not reuse, and the tail, is analysed
        and predicted in one batch (:func:`~repro.core.stpc.analyze_pairs`,
        :func:`~repro.core.stpc.predict_gaps`), with rows byte-identical
        to one gap at a time.  ``previous`` hands over the prior index.
        When both indexes agree on every shared
        frame's timestamp and on the matching gate, each sampled frame
        whose detections are the very object the prior index holds keeps
        its rows, and so does each gap the prior index held between the
        same two detection objects — with its estimate, which is a pure
        function of them.  Rows are in frame order, so when the prior
        index extrapolated the same last two samples its tail rows stay
        too, and only the frames past it are predicted.  A rebuild
        therefore analyses and predicts only the gaps that changed and
        the new tail frames: after a one-frame ``extend`` that adds no
        sample, that frame alone, and the sample check is all the rest
        of the work.  When the prior index's rows all lead
        the new ones and it wrote its buffer last, the new rows are
        written past them in that buffer's spare capacity; otherwise
        every part is copied into a fresh buffer (a quarter larger for a
        rebuild).  Rows an index can read are never written again.  A
        build with no ``previous`` is the same code with nothing to
        reuse, and lays the rows out identically.  The ledger is charged
        :data:`SIMULATED_INDEX_COST_PER_FRAME` for each frame whose rows
        the build made, not for the frames whose rows it reused: a
        from-scratch build pays for every frame, a rebuild for its new
        gaps, samples and tail.  If the prior index had built its tiles,
        the new index is built with tiles too
        (:meth:`~repro.spatial.SpatialTileIndex.updated`), on the
        caller's thread, so no reader pays for a build after the first
        one.
        """
        config = config or MASTConfig()
        ledger = ledger if ledger is not None else result.ledger
        sampled = result.sampled_ids
        timestamps = result.timestamps
        detections = result.detections
        gate = config.match_max_distance
        prior = previous
        if prior is not None:
            shared = min(prior.n_frames, result.n_frames)
            if prior._gate != gate or not np.array_equal(
                prior.timestamps[:shared], timestamps[:shared]
            ):
                prior = None

        with ledger.measure(STAGE_INDEX):
            # Typed so ``repro lint``'s lock graph sees ``layout.rows``
            # take ``_Columns._lock`` under the caller's locks.
            layout: _Layout
            layout, estimates, tail = _lay_out(result, prior, gate)
            made = result.n_frames - layout.reused
            ledger.charge(STAGE_INDEX, SIMULATED_INDEX_COST_PER_FRAME * made, count=0)
        rows, columns = layout.rows(spare=previous is not None)

        spatial_index = None
        if previous is not None:
            # Taking the lock waits out a first-use build racing this
            # rebuild on a client thread, so its tiles are carried too.
            with previous._tile_lock:
                tiles = previous.spatial_index
            if tiles is not None:
                spatial_index = tiles.updated(*rows, result.n_frames)

        return cls(
            n_frames=result.n_frames,
            timestamps=timestamps,
            sampled_ids=sampled,
            rows=rows,
            estimates=estimates,
            detections=detections,
            gate=gate,
            spatial_index=spatial_index,
            tail=tail,
            columns=columns,
        )

    @property
    def analysed(self) -> Installed:
        """A read-only view of the gap -> estimate map and the matching
        gate it was analysed under (the map is never written after the
        build)."""
        return MappingProxyType(self._estimates), self._gate

    def _tiles(self):
        """The tile index, built by the first request that routes through it.

        The build happens once per index: concurrent first requests wait
        on the lock and find the tiles the winner published.
        """
        tiles = self.spatial_index  # repro: noqa[RPR003] double-checked fast path: the attribute only ever goes from None to a fully built index
        if tiles is None:
            with self._tile_lock:
                tiles = self.spatial_index
                if tiles is None:
                    from repro.spatial import SpatialTileIndex

                    tiles = SpatialTileIndex(*self._rows, self.n_frames)
                    self.spatial_index = tiles
        return tiles

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Per-frame counts of indexed objects matching ``object_filter``."""
        return self.count_series_many([object_filter])[object_filter]

    def count_series_many(
        self, filters, *, start: int = 0
    ) -> dict[ObjectFilter, np.ndarray]:
        """Count series of ``filters`` over frames ``[start, n_frames)``.

        One routing rule: a region-shaped filter (any spatial filter but
        a plain distance cut) asked from frame 0 walks the tile index —
        building it on first use; every other series is one batched
        flat scan of the rows of frames ``start`` on, made only when
        some filter routes there.  Both are bit-identical to the
        brute-force count.
        """
        filters = list(dict.fromkeys(filters))
        region = [f for f in filters if start == 0 and _region_shaped(f)]
        series: dict[ObjectFilter, np.ndarray] = {}
        if region:
            tiles = self._tiles()
            series = {f: tiles.count_series(f) for f in region}
        flat = [f for f in filters if f not in series]
        if flat:
            series.update(self._rows.count_series(flat, self.n_frames, start=start))
        return series

    def spatial_stats(self) -> dict[str, float] | None:
        """Tile-pruning counters of the spatial index.

        ``None`` when no count series has routed through the tiles yet —
        asking never builds them.
        """
        tiles = self.spatial_index  # repro: noqa[RPR003] read-only peek: reports whatever has been published, never builds
        if tiles is None:
            return None
        return tiles.stats_snapshot()

    def objects_at(self, frame_id: int) -> ObjectArray:
        """The indexed object set of one frame (real or ST-predicted)."""
        if not 0 <= frame_id < self.n_frames:
            raise IndexError(f"frame_id {frame_id} out of range [0, {self.n_frames})")
        position = int(np.searchsorted(self.sampled_ids, frame_id))
        if position < len(self.sampled_ids) and self.sampled_ids[position] == frame_id:
            return self._detections[frame_id]
        if position == 0:
            return ObjectArray.empty()
        if position == len(self.sampled_ids):
            estimate = self._tail
        else:
            key = (int(self.sampled_ids[position - 1]), int(self.sampled_ids[position]))
            estimate = self._estimates.get(key)
        if estimate is None:
            return ObjectArray.empty()
        return estimate.predict(float(self.timestamps[frame_id]))

    @property
    def n_indexed_objects(self) -> int:
        """Total rows in the flat columns (real + predicted boxes)."""
        return int(len(self._rows.frame_index))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MASTIndex(frames={self.n_frames}, sampled={len(self.sampled_ids)}, "
            f"objects={self.n_indexed_objects})"
        )


def _lay_out(
    result: SamplingResult,
    prior: MASTIndex | None,
    gate: float | None,
) -> tuple[_Layout, dict[tuple[int, int], MotionEstimate], MotionEstimate | None]:
    """Alg. 3's rows of ``result`` around what ``prior`` holds.

    Returns the layout, the estimates and the tail's estimate.  A part
    the build does not have costs nothing: no ST-PC analysis without a
    pending pair, no flattening without a fresh sample, and no search
    per sample when ``prior`` holds every one.
    """
    sampled = result.sampled_ids
    timestamps = result.timestamps
    detections = result.detections
    ids = sampled.tolist()
    layout = _Layout(prior)
    estimates: dict[tuple[int, int], MotionEstimate] = {}
    # The first ``first`` samples are the shared prefix: each is held
    # by the prior index at its own position, with the very same
    # detections.  ``held[i]``: where the prior holds a later sample.
    first = 0
    held: dict[int, int] = {}
    prior_ids: list[int] = []
    prior_estimates: dict[tuple[int, int], MotionEstimate] = {}
    if prior is not None:
        prior_ids = prior.sampled_ids.tolist()
        prior_estimates = prior._estimates
        prior_detections = prior._detections
        for frame_id, prior_id in zip(ids, prior_ids):
            if frame_id != prior_id or (
                prior_detections[frame_id] is not detections[frame_id]
            ):
                break
            first += 1
        if first:
            layout.reuse(ids[0], ids[first - 1] + 1)
        if first == len(ids) == len(prior_ids):
            estimates = prior_estimates  # the same samples: the same gaps
        elif first:
            # Prior estimates are in sample order: the prefix's
            # gaps are its first ones.
            inner = int(np.count_nonzero(np.diff(sampled[:first]) > 1))
            estimates.update(islice(prior_estimates.items(), inner))
        if first < len(ids):
            positions = np.searchsorted(prior.sampled_ids, sampled[first:])
            for i, position in enumerate(positions.tolist(), start=first):
                frame_id = ids[i]
                if (
                    position < len(prior_ids)
                    and prior_ids[position] == frame_id
                    and prior_detections[frame_id] is detections[frame_id]
                ):
                    held[i] = position

    # The gaps after the shared prefix that the prior index does
    # not hold between the same two samples: their rows are new.
    new_gaps = {
        i: (ids[i - 1], ids[i])
        for i in range(max(first, 1), len(ids))
        if ids[i] - ids[i - 1] > 1
        and not (i - 1 in held and held.get(i) == held[i - 1] + 1)
    }
    # A live sequence's newest frames may follow its last sample:
    # the last gap's motion extrapolates them.  A batch sampling
    # always holds the last frame, so it has no tail.
    tail_gap = None
    if len(ids) >= 2 and ids[-1] < result.n_frames - 1:
        tail_gap = (ids[-2], ids[-1])
    # The prior index's tail rows stay when it extrapolated the same
    # last two samples over no more frames: only the frames past it
    # are predicted, with its estimate.
    tail = None
    tail_from = ids[-1] + 1 if ids else 0
    prior_tail = range(0)
    if (
        tail_gap is not None
        and prior is not None
        and prior._tail is not None
        and prior.n_frames <= result.n_frames
        and [i if i < first else held.get(i) for i in (len(ids) - 2, len(ids) - 1)]
        == [len(prior_ids) - 2, len(prior_ids) - 1]
    ):
        tail = prior._tail
        prior_tail = range(tail_from, prior.n_frames)
        tail_from = prior.n_frames
    # Alg. 3 lines 2-6 over every new gap at once: one ST-PC
    # batch for the estimates nobody holds (the tail's too, when
    # its two samples are adjacent), one for their rows.
    pending = list(new_gaps.values())
    if tail_gap is not None and tail is None and tail_gap[1] - tail_gap[0] == 1:
        pending.append(tail_gap)
    analysed = {}
    if pending:
        pairs = [(detections[a], detections[b], timestamps[a], timestamps[b]) for a, b in pending]
        analysed = dict(zip(pending, stpc.analyze_pairs(pairs, max_distance=gate)))
    if tail_gap is not None and tail is None:
        tail = analysed.get(tail_gap, estimates.get(tail_gap))
        if tail is None:  # the last gap, held by the prior index
            tail = prior_estimates[tail_gap]
    predicted = [analysed[gap] for gap in new_gaps.values()]
    frames = [np.arange(a + 1, b, dtype=np.int64) for a, b in new_gaps.values()]
    if tail is not None and tail_from < result.n_frames:
        predicted.append(tail)
        frames.append(np.arange(tail_from, result.n_frames, dtype=np.int64))
    ends, time_index, labels, xy, scores = stpc.predict_gaps(
        predicted, [timestamps[f] for f in frames]
    )
    frame_index = np.concatenate([np.zeros(0, dtype=np.int64), *frames])[time_index]
    new_rows = ObjectRows(frame_index, labels, xy, scores)
    spans = iter(zip([0, *ends], ends))

    # From the first sample the prior index does not hold on: each
    # gap's rows, then the next sample's.  The samples it does not hold
    # at all are flattened at once; ``fresh_ends`` delimits each one's.
    if first < len(ids):
        fresh = [ids[i] for i in range(first, len(ids)) if i not in held]
        fresh_rows = ObjectRows.flatten({frame_id: detections[frame_id] for frame_id in fresh})
        fresh_ends = iter(np.cumsum([len(detections[f]) for f in fresh]).tolist())
        fresh_lo = 0
    for i in range(first, len(ids)):
        frame_id = ids[i]
        if i > 0 and frame_id - ids[i - 1] > 1:
            gap = (ids[i - 1], frame_id)
            if i in new_gaps:
                estimates[gap] = analysed[gap]
                layout.add(new_rows.span(*next(spans)))
            else:
                estimates[gap] = prior_estimates[gap]
                layout.reuse(ids[i - 1] + 1, frame_id)
        if i in held:
            layout.reuse(frame_id, frame_id + 1)
        else:
            fresh_hi = next(fresh_ends)
            layout.add(fresh_rows.span(fresh_lo, fresh_hi))
            fresh_lo = fresh_hi
    if tail is not None:
        if prior_tail:
            layout.reuse(prior_tail.start, prior_tail.stop)
        if tail_from < result.n_frames:
            layout.add(new_rows.span(*next(spans)))
    return layout, estimates, tail


class _Layout:
    """The flat columns of a build, part by part, in frame order.

    A part is new rows or a run of frames whose rows the prior index
    holds; consecutive runs merge into one, and :meth:`rows` finds every
    run's rows with one search of the prior's frame column.
    """

    def __init__(self, prior: MASTIndex | None) -> None:
        self._prior = prior
        self._parts: list[ObjectRows | range] = []
        #: Frames whose rows come from the prior index.
        self.reused = 0

    def reuse(self, lo: int, hi: int) -> None:
        """Append the prior index's rows of frames ``[lo, hi)``."""
        last = self._parts[-1] if self._parts else None
        if isinstance(last, range) and last.stop == lo:
            self._parts[-1] = range(last.start, hi)
        else:
            self._parts.append(range(lo, hi))
        self.reused += hi - lo

    def add(self, rows: ObjectRows) -> None:
        """Append new rows."""
        self._parts.append(rows)

    def rows(self, *, spare: bool) -> tuple[ObjectRows, _Columns]:
        """The columns and the buffer they view.

        When the prior index's rows lead, the rest is appended to its
        buffer if it can be (:meth:`_Columns.append`); otherwise every
        part is copied into a fresh buffer, with room to grow if
        ``spare``.
        """
        prior = self._prior
        parts = self._parts
        runs = [part for part in parts if isinstance(part, range)]
        if runs:
            bounds = prior._rows.frame_index.searchsorted(
                [bound for run in runs for bound in (run.start, run.stop)]
            ).tolist()
            spans = iter(bounds)
            parts = [
                part if isinstance(part, ObjectRows) else prior._rows.span(next(spans), next(spans))
                for part in parts
            ]
            if (
                prior._columns is not None
                and isinstance(self._parts[0], range)
                and bounds[:2] == [0, prior.n_indexed_objects]
            ):
                appended = prior._columns.append(prior.n_indexed_objects, parts[1:])
                if appended is not None:
                    return appended
        return _Columns.fresh(parts, spare=spare)


class _Columns:
    """A growable buffer of flat columns, shared along a chain of builds.

    Rows ``[0, length)`` are published: each index on the buffer views a
    prefix of them and may be read at any time, so no row is written
    twice.  The build whose prior index views all of them — the buffer's
    last writer — writes its new rows past them in place while the
    capacity and the dtypes allow; any other build copies into a fresh
    buffer that has room to grow.
    """

    def __init__(self, columns: tuple[np.ndarray, ...], length: int) -> None:
        self._columns = columns
        self._length = length
        self._lock = threading.Lock()

    @classmethod
    def fresh(cls, parts: list[ObjectRows], *, spare: bool) -> tuple[ObjectRows, _Columns]:
        """``parts`` concatenated into a new buffer (a quarter larger if
        ``spare``), with :meth:`ObjectRows.concatenate`'s dtypes."""
        parts = [part for part in parts if len(part.frame_index)]
        if not parts:
            rows = ObjectRows.concatenate([])
            return rows, cls(tuple(rows), 0)
        n = sum(len(part.frame_index) for part in parts)
        capacity = n + n // 4 if spare else n
        columns = []
        for column in zip(*parts):
            buffer = np.empty((capacity, *column[0].shape[1:]), np.result_type(*column))
            np.concatenate(column, out=buffer[:n])
            columns.append(buffer)
        buffer = cls(tuple(columns), n)
        return buffer._view(n), buffer

    def append(self, at: int, parts: list[ObjectRows]) -> tuple[ObjectRows, _Columns] | None:
        """``parts`` written past row ``at``, where the prior index's view ends.

        ``None`` when another build already wrote past ``at``, or when
        the rows do not fit or would widen a column's dtype: the caller
        copies instead.  An empty buffer never grows, because its dtypes
        are only :meth:`ObjectRows.concatenate`'s defaults.
        """
        parts = [part for part in parts if len(part.frame_index)]
        n = at + sum(len(part.frame_index) for part in parts)
        with self._lock:
            if at != self._length:  # the prior index is not the last writer
                return None
            if at == 0 or n > len(self._columns[0]):
                return None
            for column, new in zip(self._columns, zip(*parts)):
                if np.result_type(column.dtype, *(rows.dtype for rows in new)) != column.dtype:
                    return None
            for part in parts:
                hi = at + len(part.frame_index)
                for column, rows in zip(self._columns, part):
                    column[at:hi] = rows
                at = hi
            self._length = n
        return self._view(n), self

    def _view(self, n: int) -> ObjectRows:
        return ObjectRows(*(column[:n] for column in self._columns))


@dataclass
class LinearCountProvider:
    """Seiden-style linear interpolation of sampled-frame counts.

    The series is continuous; the paper's Example 5.3 floors it before
    checking a retrieval predicate, which the answer path does for the
    ``"linear_floor"`` route (:meth:`~repro.query.engine.SeriesState.answer`).
    Frames after the
    last sample hold its count (``np.interp`` clamps).
    """

    result: SamplingResult

    simulated_query_cost_per_frame = SIMULATED_QUERY_COST_LINEAR

    def __post_init__(self) -> None:
        self.n_frames = self.result.n_frames
        self._sample_times = self.result.timestamps[self.result.sampled_ids]
        #: Rows of every sampled frame, binned by sample position; built
        #: by the first count from frame 0, so fitting pays nothing.
        self._rows: ObjectRows | None = None

    def _sample_rows(self, first: int) -> ObjectRows:
        """Rows of the sampled frames from position ``first`` on, binned
        by sample position minus ``first``."""
        if first == 0 and self._rows is not None:
            return self._rows
        rows = ObjectRows.flatten(
            {
                position: self.result.detections[int(frame_id)]
                for position, frame_id in enumerate(self.result.sampled_ids[first:])
            }
        )
        if first == 0:
            self._rows = rows
        return rows

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        return self.count_series_many([object_filter])[object_filter]

    def count_series_many(
        self, filters, *, start: int = 0
    ) -> dict[ObjectFilter, np.ndarray]:
        """Count series of ``filters`` over frames ``[start, n_frames)``.

        Interpolation at a frame reads only its two bracketing samples,
        so only the sampled frames from the last one at or before
        ``start`` on are counted: completing what an ``extend``
        invalidated costs the extension, not the sequence.  Bit-identical
        to slicing the series from frame 0.
        """
        start = int(start)
        sampled_ids = self.result.sampled_ids
        first = max(int(np.searchsorted(sampled_ids, start, side="right")) - 1, 0)
        counts = self._sample_rows(first).count_series(filters, len(sampled_ids) - first)
        return {
            object_filter: np.interp(
                self.result.timestamps[start:], self._sample_times[first:], sampled
            )
            for object_filter, sampled in counts.items()
        }
