"""The MAST index (paper Alg. 3) and its count providers.

After sampling, the index stores — for every frame in the sequence —
either the deep model's detections (sampled frames) or the ST-PC
predicted boxes (unsampled frames, Alg. 3 line 5).  Precomputing the
predictions once is what makes ST-based query processing cheap: the
paper reports the index makes ST prediction ~2x faster by "preventing
repeated computation".

Internally the per-object rows of all frames are flattened into parallel
columns (frame index, label, distance-to-sensor, confidence), so a count
series for any object filter is one vectorized mask + ``bincount``.
When the config enables it, the first region-shaped count series also
organizes the rows into a BEV :class:`~repro.spatial.SpatialTileIndex`,
and spatially filtered count series route through it from then on —
pruning tiles outside the predicate and answering fully covered tiles
from per-tile count summaries, with bit-identical results.  An index
that is never asked such a query never builds its tiles.

Two :class:`~repro.query.engine.CountProvider` implementations sit on
top:

* :class:`STCountProvider` — per-frame counts from the indexed boxes
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
from repro.query.predicates import ObjectFilter
from repro.utils.timing import STAGE_INDEX, CostLedger

__all__ = [
    "MASTIndex",
    "STCountProvider",
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


class MASTIndex:
    """Per-frame (real or ST-predicted) object sets in flat-column form.

    # guarded-by: _tile_lock: spatial_index
    """

    def __init__(
        self,
        n_frames: int,
        timestamps: np.ndarray,
        sampled_ids: np.ndarray,
        frame_index: np.ndarray,
        labels: np.ndarray,
        positions: np.ndarray,
        scores: np.ndarray,
        estimates: dict[tuple[int, int], MotionEstimate],
        gap_rows: dict[tuple[int, int], tuple[int, int]],
        detections: dict[int, ObjectArray],
        config: MASTConfig,
        spatial_index=None,
    ) -> None:
        self.n_frames = int(n_frames)
        self.timestamps = np.asarray(timestamps, dtype=float)
        self.sampled_ids = np.asarray(sampled_ids, dtype=np.int64)
        self._frame_index = frame_index
        self._labels = labels
        self._positions = positions
        self._scores = scores
        self._estimates = estimates
        #: Gap -> ``[lo, hi)`` span of its predicted rows in the flat
        #: columns; a later build slices them instead of re-predicting.
        self._gap_rows = gap_rows
        self._detections = detections
        self._tiled = config.spatial_index
        #: The :class:`~repro.spatial.SpatialTileIndex` over the flat
        #: columns once a count series has routed through it (or the one
        #: ``build`` carried over from the previous index); ``None``
        #: until then, and always when the config disables it.
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
        boundary: int | None = None,
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
        again (without an engine every gap is).  ``previous`` hands over the prior index: where it holds
        the very estimate the memo returned — the same detections at the
        same timestamps under the same gate — and the two indexes agree
        on every shared frame's timestamp, that gap's predicted rows are
        sliced out of the prior flat columns.  A rebuild therefore runs
        ST-PC analysis and prediction only on the gaps that changed:
        after a one-frame ``extend``, the ones past the invalidation
        boundary.  With ``boundary`` (the pipeline's extend path) a tile
        index the prior index had built also updates incrementally —
        keeping its split geometry and the count-summary entries for
        frames ``<= boundary`` — instead of being rebuilt on next use.
        """
        config = config or MASTConfig()
        ledger = ledger if ledger is not None else result.ledger
        sampled = result.sampled_ids
        timestamps = result.timestamps

        frame_idx_parts: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        position_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        estimates: dict[tuple[int, int], MotionEstimate] = {}
        gap_rows: dict[tuple[int, int], tuple[int, int]] = {}
        prior_estimates: dict[tuple[int, int], MotionEstimate] = {}
        prior_rows: dict[tuple[int, int], tuple[int, int]] = {}
        prior_columns: tuple[np.ndarray, ...] = ()
        if previous is not None:
            shared = min(previous.n_frames, result.n_frames)
            if np.array_equal(previous.timestamps[:shared], timestamps[:shared]):
                prior_estimates = previous._estimates
                prior_rows = previous._gap_rows
                prior_columns = (
                    previous._frame_index,
                    previous._labels,
                    previous._positions,
                    previous._scores,
                )

        with ledger.measure(STAGE_INDEX):
            ledger.charge(
                STAGE_INDEX,
                SIMULATED_INDEX_COST_PER_FRAME * result.n_frames,
                count=0,
            )
            # Sampled frames: store the model output directly.
            n_rows = 0
            for frame_id in sampled:
                objects = result.detections[int(frame_id)]
                if not len(objects):
                    continue
                frame_idx_parts.append(
                    np.full(len(objects), frame_id, dtype=np.int64)
                )
                label_parts.append(objects.labels)
                position_parts.append(objects.centers[:, :2])
                score_parts.append(objects.scores)
                n_rows += len(objects)

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
                    lo, hi = prior_rows[(start, end)]
                    frame_idx, labels, positions, scores = (
                        column[lo:hi] for column in prior_columns
                    )
                else:
                    interior = np.arange(start + 1, end, dtype=np.int64)
                    local_idx, labels, positions, scores = estimate.predict_flat(
                        timestamps[interior]
                    )
                    frame_idx = interior[local_idx]
                gap_rows[(start, end)] = (n_rows, n_rows + len(labels))
                if len(labels):
                    frame_idx_parts.append(frame_idx)
                    label_parts.append(labels)
                    position_parts.append(positions)
                    score_parts.append(scores)
                    n_rows += len(labels)

        if frame_idx_parts:
            frame_index = np.concatenate(frame_idx_parts)
            labels = np.concatenate(label_parts)
            positions = np.concatenate(position_parts)
            scores = np.concatenate(score_parts)
        else:
            frame_index = np.zeros(0, dtype=np.int64)
            labels = np.empty(0, dtype="<U16")
            positions = np.zeros((0, 2))
            scores = np.zeros(0)

        spatial_index = None
        if config.spatial_index and previous is not None and boundary is not None:  # repro: noqa[RPR003] the frozen config's flag of the same name, not the guarded attribute
            # Taking the lock waits out a first-use build racing this
            # extend on a client thread, so its tiles are carried too.
            with previous._tile_lock:
                prior = previous.spatial_index
            if prior is not None:
                spatial_index = prior.updated(
                    frame_index,
                    labels,
                    positions,
                    scores,
                    result.n_frames,
                    boundary=boundary,
                )

        return cls(
            n_frames=result.n_frames,
            timestamps=timestamps,
            sampled_ids=sampled,
            frame_index=frame_index,
            labels=labels,
            positions=positions,
            scores=scores,
            estimates=estimates,
            gap_rows=gap_rows,
            detections=result.detections,
            config=config,
            spatial_index=spatial_index,
        )

    def _tiles(self):
        """The tile index, built by the first request that routes through it.

        ``None`` when the config disables tiling.  The build happens
        once per index: concurrent first requests wait on the lock and
        find the tiles the winner published.
        """
        tiles = self.spatial_index  # repro: noqa[RPR003] double-checked fast path: the attribute only ever goes from None to a fully built index
        if tiles is None and self._tiled:
            with self._tile_lock:
                tiles = self.spatial_index
                if tiles is None:
                    from repro.spatial import SpatialTileIndex

                    tiles = SpatialTileIndex(
                        self._frame_index,
                        self._labels,
                        self._positions,
                        self._scores,
                        self.n_frames,
                    )
                    self.spatial_index = tiles
        return tiles

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Per-frame counts of indexed objects matching ``object_filter``.

        Spatially filtered series route through the tile index unless
        the config disables it (bit-identical; tiles outside the
        predicate are pruned), building it on the first such request.
        Label-only / confidence-only filters stay on the flat vectorized
        scan — no tile can be excluded without geometry.
        """
        tiles = self._tiles() if object_filter.spatial is not None else None
        if tiles is not None:
            return tiles.count_series(object_filter)
        mask = self._scores >= object_filter.confidence
        if object_filter.label is not None:
            mask &= self._labels == object_filter.label
        if object_filter.spatial is not None:
            mask &= object_filter.spatial.mask_positions(self._positions)
        return np.bincount(
            self._frame_index[mask], minlength=self.n_frames
        ).astype(float)

    def count_series_many(
        self, filters
    ) -> dict[ObjectFilter, np.ndarray]:
        """Count series for several filters, sharing predicate work.

        Confidence-cut and label masks are computed once per distinct
        threshold/label, and the sensor distance of every indexed object
        once for all :class:`~repro.query.predicates.SpatialPredicate`
        filters — the dominant cost when a workload grid repeats the
        same label over many distance cuts.  Answers are bit-identical
        to per-filter :meth:`count_series` calls.
        """
        from repro.query.predicates import SpatialPredicate

        series: dict[ObjectFilter, np.ndarray] = {}
        conf_masks: dict[float, np.ndarray] = {}
        label_masks: dict[str, np.ndarray] = {}
        distances: np.ndarray | None = None
        for object_filter in dict.fromkeys(filters):
            # Region-shaped filters gain more from tile pruning than
            # from the shared-mask batching; plain distance cuts keep
            # the shared-distance fast path below.
            tiles = None
            if object_filter.spatial is not None and not isinstance(
                object_filter.spatial, SpatialPredicate
            ):
                tiles = self._tiles()
            if tiles is not None:
                series[object_filter] = tiles.count_series(object_filter)
                continue
            mask = conf_masks.get(object_filter.confidence)
            if mask is None:
                mask = self._scores >= object_filter.confidence
                conf_masks[object_filter.confidence] = mask
            mask = mask.copy()
            if object_filter.label is not None:
                label_mask = label_masks.get(object_filter.label)
                if label_mask is None:
                    label_mask = self._labels == object_filter.label
                    label_masks[object_filter.label] = label_mask
                mask &= label_mask
            spatial = object_filter.spatial
            if isinstance(spatial, SpatialPredicate):
                if distances is None:
                    distances = np.hypot(
                        self._positions[:, 0], self._positions[:, 1]
                    )
                mask &= spatial.mask(distances)
            elif spatial is not None:
                mask &= spatial.mask_positions(self._positions)
            series[object_filter] = np.bincount(
                self._frame_index[mask], minlength=self.n_frames
            ).astype(float)
        return series

    def count_series_tail(self, object_filter: ObjectFilter, start: int) -> np.ndarray:
        """Counts for frames ``[start, n_frames)`` only.

        Applies the filter to just the indexed rows of the tail region,
        so recomputing the frames invalidated by an :meth:`extend` costs
        O(tail rows) instead of O(all rows).  Bit-identical to
        ``count_series(object_filter)[start:]``.
        """
        start = int(start)
        if start <= 0:
            return self.count_series(object_filter)
        selector = self._frame_index >= start
        scores = self._scores[selector]
        mask = scores >= object_filter.confidence
        if object_filter.label is not None:
            mask &= self._labels[selector] == object_filter.label
        if object_filter.spatial is not None:
            mask &= object_filter.spatial.mask_positions(self._positions[selector])
        return np.bincount(
            self._frame_index[selector][mask] - start,
            minlength=self.n_frames - start,
        ).astype(float)

    def spatial_stats(self) -> dict[str, float] | None:
        """Tile-pruning counters of the spatial index.

        ``None`` when tiling is disabled or no count series has routed
        through the tiles yet — asking never builds them.
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
        return int(len(self._frame_index))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MASTIndex(frames={self.n_frames}, sampled={len(self.sampled_ids)}, "
            f"objects={self.n_indexed_objects})"
        )


class STCountProvider:
    """Count provider backed by the ST-prediction index (Eq. 3/4)."""

    simulated_query_cost_per_frame = SIMULATED_QUERY_COST_ST
    #: Provider kind used as the cache-key namespace by the serving layer.
    kind = "st"

    def __init__(self, index: MASTIndex) -> None:
        self.index = index
        self.n_frames = index.n_frames

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        return self.index.count_series(object_filter)

    def count_series_many(self, filters) -> dict[ObjectFilter, np.ndarray]:
        return self.index.count_series_many(filters)

    def count_series_tail(self, object_filter: ObjectFilter, start: int) -> np.ndarray:
        return self.index.count_series_tail(object_filter, start)


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

    def _sampled_counts(self, object_filter: ObjectFilter, first: int = 0) -> np.ndarray:
        """Counts measured at the sampled frames from position ``first`` on."""
        return np.array(
            [
                object_filter.count(self.result.detections[int(frame_id)])
                for frame_id in self.result.sampled_ids[first:]
            ],
            dtype=float,
        )

    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        return np.interp(
            self.result.timestamps,
            self._sample_times,
            self._sampled_counts(object_filter),
        )

    def count_series_many(self, filters) -> dict[ObjectFilter, np.ndarray]:
        """Count series for several filters in one pass over sampled frames.

        Confidence and label masks are shared across filters within each
        sampled frame, and every object's sensor distance is computed
        once per frame for all distance predicates.  Bit-identical to
        per-filter :meth:`count_series` calls.
        """
        from repro.query.predicates import SpatialPredicate

        filters = list(dict.fromkeys(filters))
        sampled_ids = self.result.sampled_ids
        rows = np.zeros((len(filters), len(sampled_ids)))
        for column, frame_id in enumerate(sampled_ids):
            objects = self.result.detections[int(frame_id)]
            positions = objects.centers[:, :2]
            conf_masks: dict[float, np.ndarray] = {}
            label_masks: dict[str, np.ndarray] = {}
            distances: np.ndarray | None = None
            for row, object_filter in enumerate(filters):
                mask = conf_masks.get(object_filter.confidence)
                if mask is None:
                    mask = objects.scores >= object_filter.confidence
                    conf_masks[object_filter.confidence] = mask
                mask = mask.copy()
                if object_filter.label is not None:
                    label_mask = label_masks.get(object_filter.label)
                    if label_mask is None:
                        label_mask = objects.labels == object_filter.label
                        label_masks[object_filter.label] = label_mask
                    mask &= label_mask
                spatial = object_filter.spatial
                if isinstance(spatial, SpatialPredicate):
                    if distances is None:
                        distances = np.hypot(positions[:, 0], positions[:, 1])
                    mask &= spatial.mask(distances)
                elif spatial is not None:
                    mask &= spatial.mask_positions(positions)
                rows[row, column] = int(mask.sum())
        return {
            object_filter: np.interp(
                self.result.timestamps, self._sample_times, rows[row]
            )
            for row, object_filter in enumerate(filters)
        }

    def count_series_tail(self, object_filter: ObjectFilter, start: int) -> np.ndarray:
        """Counts for frames ``[start, n_frames)`` only.

        Interpolation at a frame reads only its two bracketing samples,
        so the tail counts just the sampled frames from the last one at
        or before ``start`` on: recomputing what an ``extend``
        invalidated costs the extension, not the sequence, with nothing
        carried over from the previous provider.  Bit-identical to
        ``count_series(object_filter)[start:]``.
        """
        start = int(start)
        if start <= 0:
            return self.count_series(object_filter)
        first = max(int(np.searchsorted(self.result.sampled_ids, start, side="right")) - 1, 0)
        return np.interp(
            self.result.timestamps[start:],
            self._sample_times[first:],
            self._sampled_counts(object_filter, first),
        )
