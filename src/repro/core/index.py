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

import numpy as np

from repro.core.config import MASTConfig
from repro.core.sampler import SamplingResult
from repro.core.stpc import MotionEstimate, analyze_pair_once
from repro.data.annotations import ObjectArray
from repro.inference import InferenceEngine
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
        sample_rows: np.ndarray,
        estimates: dict[tuple[int, int], MotionEstimate],
        detections: dict[int, ObjectArray],
        gate: float | None = None,
        spatial_index=None,
        tail: MotionEstimate | None = None,
    ) -> None:
        self.n_frames = int(n_frames)
        self.timestamps = np.asarray(timestamps, dtype=float)
        self.sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
        #: Flat columns in sample order: ``[det(s0)][gap(s0, s1)][det(s1)]
        #: ... [det(sk)][tail]``, so the rows of the frames up to any
        #: sampled frame are a prefix.
        self._rows = rows
        #: ``(k, 2)``: the ``[lo, hi)`` rows of each sampled frame's
        #: detections.  Gap ``i`` is ``[sample_rows[i, 1],
        #: sample_rows[i + 1, 0])``; the tail follows the last sample.
        self._sample_rows = sample_rows
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
        engine: InferenceEngine | None = None,
    ) -> MASTIndex:
        """Run Alg. 3 over a sampling result.

        For every gap between consecutive sampled frames the ST-PC motion
        estimate predicts the object set of each interior frame; sampled
        frames contribute their raw detections.  Frames after the last
        sample (the open tail of a live, growing sampling) are
        extrapolated by the last gap's estimate, with its confidence
        factors clamped.

        ``engine`` is the one that served ``result``'s detections: each
        gap's estimate comes through its motion memo
        (:func:`~repro.core.stpc.analyze_pair_once`), so a gap the
        sampler or an earlier build already analysed is not analysed
        again (without an engine every gap is).  ``previous`` hands over
        the prior index.  When both indexes agree on every shared
        frame's timestamp and on the matching gate, each sampled frame
        whose detections are the very object the prior index holds keeps
        its rows, and so does each gap the prior index held between the
        same two detection objects — with its estimate, which is a pure
        function of them.  The leading run of such frames and gaps is one
        view of the prior columns, every later run of them another, and
        the new columns are one ``concatenate`` of those views and the
        new rows, so the prior index's columns are never written.  A
        rebuild therefore analyses and predicts only the gaps that
        changed, plus the tail: after a one-frame ``extend``, the ones
        past the invalidation boundary.  A build with no ``previous`` is
        the same code with nothing to reuse, and lays the rows out
        identically.  If the prior index had built its tiles, the new
        index is built with tiles too
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
            ledger.charge(
                STAGE_INDEX,
                SIMULATED_INDEX_COST_PER_FRAME * result.n_frames,
                count=0,
            )

            def analyse(start: int, end: int) -> MotionEstimate:
                return analyze_pair_once(
                    engine,
                    detections[start],
                    detections[end],
                    timestamps[start],
                    timestamps[end],
                    max_distance=gate,
                )

            def predict(estimate: MotionEstimate, frames: np.ndarray) -> ObjectRows:
                local_idx, labels, positions, scores = estimate.predict_flat(
                    timestamps[frames]
                )
                return ObjectRows(frames[local_idx], labels, positions, scores)

            ids = sampled.tolist()
            layout = _Layout(prior._rows if prior is not None else None)
            sample_rows = np.empty((len(ids), 2), dtype=np.int64)
            estimates: dict[tuple[int, int], MotionEstimate] = {}
            # ``held[i]``: where the prior index holds sampled frame ``i``
            # with the very same detections, or -1.  The leading run of
            # frames held at their own position is the shared prefix.
            held = [-1] * len(ids)
            first = 0
            prior_rows: list[list[int]] = []
            prior_estimates: dict[tuple[int, int], MotionEstimate] = {}
            if prior is not None:
                prior_ids = prior.sampled_ids.tolist()
                prior_rows = prior._sample_rows.tolist()
                prior_estimates = prior._estimates
                prior_detections = prior._detections
                for frame_id, prior_id in zip(ids, prior_ids):
                    if frame_id != prior_id or (
                        prior_detections[frame_id] is not detections[frame_id]
                    ):
                        break
                    held[first] = first
                    first += 1
                if first:
                    sample_rows[:first] = prior._sample_rows[:first]
                    layout.reuse(0, prior_rows[first - 1][1])
                    # Prior estimates are in sample order: the prefix's
                    # gaps are its first ones.
                    inner = int(np.count_nonzero(np.diff(sampled[:first]) > 1))
                    estimates.update(islice(prior_estimates.items(), inner))
                positions = np.searchsorted(prior.sampled_ids, sampled[first:])
                for i, position in enumerate(positions.tolist(), start=first):
                    frame_id = ids[i]
                    if (
                        position < len(prior_ids)
                        and prior_ids[position] == frame_id
                        and prior_detections[frame_id] is detections[frame_id]
                    ):
                        held[i] = position

            # The sampled frames the prior index does not hold, flattened
            # at once; ``fresh_ends`` delimits each frame's rows.
            fresh = [frame_id for frame_id, at in zip(ids, held) if at < 0]
            fresh_rows = ObjectRows.flatten({frame_id: detections[frame_id] for frame_id in fresh})
            fresh_ends = iter(np.cumsum([len(detections[f]) for f in fresh]).tolist())
            fresh_lo = 0

            # Alg. 3 lines 2-6 from the first sample the prior index does
            # not hold: each gap's ST-PC prediction, then the next sample.
            for i in range(first, len(ids)):
                frame_id = ids[i]
                if i > 0 and frame_id - ids[i - 1] > 1:
                    gap = (ids[i - 1], frame_id)
                    if held[i - 1] >= 0 and held[i] == held[i - 1] + 1:
                        estimates[gap] = prior_estimates[gap]
                        layout.reuse(prior_rows[held[i - 1]][1], prior_rows[held[i]][0])
                    else:
                        estimates[gap] = analyse(*gap)
                        interior = np.arange(gap[0] + 1, frame_id, dtype=np.int64)
                        layout.add(predict(estimates[gap], interior))
                lo = layout.n_rows
                if held[i] >= 0:
                    layout.reuse(*prior_rows[held[i]])
                else:
                    fresh_hi = next(fresh_ends)
                    layout.add(fresh_rows.span(fresh_lo, fresh_hi))
                    fresh_lo = fresh_hi
                sample_rows[i] = lo, layout.n_rows

            # A live sequence's newest frames may follow its last sample:
            # the last gap's motion extrapolates them.  A batch sampling
            # always holds the last frame, so it has no tail.
            tail = None
            if len(ids) >= 2 and ids[-1] < result.n_frames - 1:
                start, last = ids[-2], ids[-1]
                tail = estimates.get((start, last))
                if tail is None:
                    tail = analyse(start, last)
                layout.add(
                    predict(tail, np.arange(last + 1, result.n_frames, dtype=np.int64))
                )
        rows = layout.rows()

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
            sample_rows=sample_rows,
            estimates=estimates,
            detections=detections,
            gate=gate,
            spatial_index=spatial_index,
            tail=tail,
        )

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
        flat scan of the rows from the segment holding ``start`` on (the
        rows are in frame order segment by segment, so no earlier row
        can count).  Both are bit-identical to the brute-force count.
        """
        filters = list(dict.fromkeys(filters))
        region = [f for f in filters if start == 0 and _region_shaped(f)]
        series: dict[ObjectFilter, np.ndarray] = {}
        if region:
            tiles = self._tiles()
            series = {f: tiles.count_series(f) for f in region}
        flat = [f for f in filters if f not in series]
        series.update(
            self._rows_from(start).count_series(flat, self.n_frames, start=start)
        )
        return series

    def _rows_from(self, frame: int) -> ObjectRows:
        """The rows from the segment holding ``frame`` on: ``frame``'s
        detections if it is sampled, else the gap or tail it lies in."""
        position = int(np.searchsorted(self.sampled_ids, frame, side="right")) - 1
        if position < 0:
            return self._rows
        lo, hi = self._sample_rows[position]
        return self._rows.span(lo if self.sampled_ids[position] == frame else hi)

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


class _Layout:
    """The flat columns of a build, part by part, in order.

    A run of rows reused from the prior index stays one view until a new
    part follows it; :meth:`rows` concatenates everything once.
    """

    def __init__(self, prior: ObjectRows | None) -> None:
        self._prior = prior
        self._parts: list[ObjectRows] = []
        self._run: tuple[int, int] | None = None
        self.n_rows = 0

    def reuse(self, lo: int, hi: int) -> None:
        """Append the prior index's rows ``[lo, hi)``."""
        if self._run is not None and self._run[1] == lo:
            self._run = (self._run[0], hi)
        else:
            self._close_run()
            self._run = (lo, hi)
        self.n_rows += hi - lo

    def add(self, rows: ObjectRows) -> None:
        """Append new rows."""
        self._close_run()
        self._parts.append(rows)
        self.n_rows += len(rows.frame_index)

    def _close_run(self) -> None:
        if self._run is not None:
            assert self._prior is not None
            self._parts.append(self._prior.span(*self._run))
            self._run = None

    def rows(self) -> ObjectRows:
        self._close_run()
        return ObjectRows.concatenate(self._parts)


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
