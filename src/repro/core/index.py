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
    #: Provider kind used as the cache-key namespace by the serving layer.
    kind = "st"

    def __init__(
        self,
        n_frames: int,
        timestamps: np.ndarray,
        sampled_ids: np.ndarray,
        rows: ObjectRows,
        estimates: dict[tuple[int, int], MotionEstimate],
        gap_rows: dict[tuple[int, int], tuple[int, int]],
        detections: dict[int, ObjectArray],
        spatial_index=None,
    ) -> None:
        self.n_frames = int(n_frames)
        self.timestamps = np.asarray(timestamps, dtype=float)
        self.sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
        self._rows = rows
        self._estimates = estimates
        #: Gap -> ``[lo, hi)`` span of its predicted rows in the flat
        #: columns; a later build slices them instead of re-predicting.
        self._gap_rows = gap_rows
        self._detections = detections
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
        frames contribute their raw detections.

        ``engine`` is the one that served ``result``'s detections: each
        gap's estimate comes through its motion memo
        (:func:`~repro.core.stpc.analyze_pair_once`), so a gap the
        sampler or an earlier build already analysed is not analysed
        again (without an engine every gap is).  ``previous`` hands over
        the prior index: where it holds the very estimate the memo
        returned — the same detections at the same timestamps under the
        same gate — and the two indexes agree on every shared frame's
        timestamp, that gap's predicted rows are sliced out of the prior
        flat columns.  A rebuild therefore runs ST-PC analysis and
        prediction only on the gaps that changed: after a one-frame
        ``extend``, the ones past the invalidation boundary.  If the prior
        index had built its tiles, the new index is built with tiles too
        (:meth:`~repro.spatial.SpatialTileIndex.updated`), on the caller's
        thread, so no reader pays for a build after the first one.
        """
        config = config or MASTConfig()
        ledger = ledger if ledger is not None else result.ledger
        sampled = result.sampled_ids
        timestamps = result.timestamps

        estimates: dict[tuple[int, int], MotionEstimate] = {}
        gap_rows: dict[tuple[int, int], tuple[int, int]] = {}
        prior_estimates: dict[tuple[int, int], MotionEstimate] = {}
        prior_rows: dict[tuple[int, int], tuple[int, int]] = {}
        prior_columns: ObjectRows | None = None
        if previous is not None:
            shared = min(previous.n_frames, result.n_frames)
            if np.array_equal(previous.timestamps[:shared], timestamps[:shared]):
                prior_estimates = previous._estimates
                prior_rows = previous._gap_rows
                prior_columns = previous._rows

        with ledger.measure(STAGE_INDEX):
            ledger.charge(
                STAGE_INDEX,
                SIMULATED_INDEX_COST_PER_FRAME * result.n_frames,
                count=0,
            )
            # Sampled frames: store the model output directly.
            parts = [
                ObjectRows.flatten(
                    {int(frame_id): result.detections[int(frame_id)] for frame_id in sampled}
                )
            ]
            n_rows = len(parts[0].frame_index)

            # Unsampled frames: ST-PC prediction per gap (Alg. 3 lines 2-6).
            for start, end in zip(sampled[:-1], sampled[1:]):
                start, end = int(start), int(end)
                if end - start <= 1:
                    continue
                estimate = analyze_pair_once(
                    engine,
                    result.detections[start],
                    result.detections[end],
                    timestamps[start],
                    timestamps[end],
                    max_distance=config.match_max_distance,
                )
                estimates[(start, end)] = estimate
                if prior_estimates.get((start, end)) is estimate:
                    assert prior_columns is not None
                    lo, hi = prior_rows[(start, end)]
                    gap = ObjectRows(*(column[lo:hi] for column in prior_columns))
                else:
                    interior = np.arange(start + 1, end, dtype=np.int64)
                    local_idx, labels, positions, scores = estimate.predict_flat(
                        timestamps[interior]
                    )
                    gap = ObjectRows(interior[local_idx], labels, positions, scores)
                gap_rows[(start, end)] = (n_rows, n_rows + len(gap.frame_index))
                parts.append(gap)
                n_rows += len(gap.frame_index)
        rows = ObjectRows.concatenate(parts)

        spatial_index = None
        if previous is not None:
            # Taking the lock waits out a first-use build racing this
            # rebuild on a client thread, so its tiles are carried too.
            with previous._tile_lock:
                prior = previous.spatial_index
            if prior is not None:
                spatial_index = prior.updated(*rows, result.n_frames)

        return cls(
            n_frames=result.n_frames,
            timestamps=timestamps,
            sampled_ids=sampled,
            rows=rows,
            estimates=estimates,
            gap_rows=gap_rows,
            detections=result.detections,
            spatial_index=spatial_index,
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
        flat scan of the rows of frames ``>= start``.  Both are
        bit-identical to the brute-force count.
        """
        filters = list(dict.fromkeys(filters))
        region = [f for f in filters if start == 0 and _region_shaped(f)]
        series: dict[ObjectFilter, np.ndarray] = {}
        if region:
            tiles = self._tiles()
            series = {f: tiles.count_series(f) for f in region}
        flat = [f for f in filters if f not in series]
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
        if frame_id in self._detections:
            return self._detections[frame_id]
        position = int(np.searchsorted(self.sampled_ids, frame_id))
        if position == 0 or position >= len(self.sampled_ids):
            return ObjectArray.empty()
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


@dataclass
class LinearCountProvider:
    """Seiden-style linear interpolation of sampled-frame counts.

    The series is continuous; the paper's Example 5.3 floors it before
    checking a retrieval predicate, which is the evaluator's job
    (:meth:`~repro.query.engine.QueryEngine.floored`).
    """

    result: SamplingResult

    simulated_query_cost_per_frame = SIMULATED_QUERY_COST_LINEAR
    #: Provider kind used as the cache-key namespace by the serving layer.
    kind = "linear"

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
