"""Hierarchical BEV spatial tiling with pruned region queries.

:class:`SpatialTileIndex` organizes the flat per-object columns of a
:class:`~repro.core.index.MASTIndex` (frame id, label, BEV position,
confidence) into a quadtree over the bird's-eye-view plane, in the
spirit of Massive-PotreeConverter's multi-level decomposition: the
split geometry adapts to the data, every tile stores the tight extent
of the boxes inside it, and per-(tile, class) count summaries are built
once at ingest time.

A count-series request with a spatial filter then prunes top-down using
the tile-classification protocol of :mod:`repro.query.spatial`:

* tiles whose extent cannot overlap the predicate are skipped wholesale
  (their rows are never touched);
* tiles fully contained in the predicate are answered from the count
  summaries without evaluating a single box (when the filter's
  confidence cut matches the summary cut; otherwise the asked label's
  rows are re-masked by confidence only — still no geometry);
* only *boundary* tiles fall back to exact ``mask_positions``, over the
  asked label's rows in them.

The index keeps its own copy of the four columns in tile order: each
leaf is a contiguous span, and inside a leaf the rows are grouped by
label (one stable sort on (leaf, label) at build time).  Every
(leaf, label) pair is therefore one contiguous span too, so a filter
reads the slices of its label and never compares a label or gathers a
row it does not need; ``*`` reads whole leaves.

Answers are bit-identical to the brute-force scan by construction: the
tiles partition the rows, classification is sound (``contained`` tiles
satisfy the predicate at every interior point, ``pruned`` tiles at
none), and per-tile integer counts sum exactly in float64.

A tile index has one build, the constructor.  :meth:`updated` (a rebuild
of the :class:`~repro.core.index.MASTIndex` the tiles belong to) is that
build over the new columns with the same shape parameters, bumping
:attr:`version` so downstream layers can observe the epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.query.predicates import DEFAULT_CONFIDENCE, ObjectFilter
from repro.query.spatial import tile_tests
from repro.spatial.tiles import TileBounds

__all__ = [
    "SpatialTileIndex",
    "SpatialIndexStats",
    "DEFAULT_LEAF_CAPACITY",
    "DEFAULT_MAX_DEPTH",
]

#: Default maximum rows per leaf tile before it splits.
DEFAULT_LEAF_CAPACITY: int = 512
#: Default maximum quadtree depth.
DEFAULT_MAX_DEPTH: int = 10

#: Label key for the any-label ("*") summaries.
_ANY_LABEL = None


@dataclass
class SpatialIndexStats:
    """Cumulative pruning statistics (leaf-tile and row units)."""

    queries: int = 0
    #: Leaf tiles skipped wholesale (no extent overlap with the filter).
    tiles_pruned: int = 0
    #: Leaf tiles answered from count summaries / label-only masking.
    tiles_contained: int = 0
    #: Leaf tiles that fell back to exact per-object evaluation.
    tiles_boundary: int = 0
    #: Rows whose positions were actually tested by ``mask_positions``:
    #: the asked label's rows in the boundary leaves.
    rows_scanned: int = 0
    #: Rows answered from precomputed summaries (never materialized).
    rows_summarized: int = 0
    #: Total rows across all queries (the brute-force scan cost).
    rows_total: int = 0

    def snapshot(self) -> dict[str, float]:
        """JSON-ready view, including derived prune/scan rates."""
        tiles_seen = self.tiles_pruned + self.tiles_contained + self.tiles_boundary
        return {
            "queries": self.queries,
            "tiles_pruned": self.tiles_pruned,
            "tiles_contained": self.tiles_contained,
            "tiles_boundary": self.tiles_boundary,
            "tile_prune_rate": self.tiles_pruned / tiles_seen if tiles_seen else 0.0,
            "rows_scanned": self.rows_scanned,
            "rows_summarized": self.rows_summarized,
            "rows_total": self.rows_total,
            "row_scan_fraction": (
                self.rows_scanned / self.rows_total if self.rows_total else 0.0
            ),
        }


@dataclass
class _Node:
    """One quadtree tile: a contiguous span of reordered rows."""

    start: int
    end: int
    #: Tight bbox of the rows in the span (None for an empty tile).
    extent: TileBounds | None
    #: Split center for internal nodes; None marks a leaf.
    center: tuple[float, float] | None = None
    #: Child node ids in quadrant order (internal nodes only).
    children: tuple[int, int, int, int] | None = None
    #: Node ids of the leaf tiles in this node's subtree (itself for a leaf).
    leaves: tuple[int, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return self.center is None

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def n_rows(self) -> int:
        return self.end - self.start


#: Sparse per-(leaf, label) count summary: (unique frame ids, counts).
_Summary = tuple[np.ndarray, np.ndarray]
#: One leaf's rows of one label (of every label under ``_ANY_LABEL``):
#: the ``[lo, hi)`` span of the tile-ordered columns, and its count
#: summary at the summary confidence (``None`` when no row passes it).
_Span = tuple[int, int, _Summary | None]


class SpatialTileIndex:
    """Quadtree over indexed object positions with pruned count series."""

    def __init__(
        self,
        frame_index: np.ndarray,
        labels: np.ndarray,
        positions: np.ndarray,
        scores: np.ndarray,
        n_frames: int,
        *,
        leaf_capacity: int = DEFAULT_LEAF_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
        summary_confidence: float = DEFAULT_CONFIDENCE,
    ) -> None:
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be >= 1, got {leaf_capacity}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self._frame_index = np.asarray(frame_index, dtype=np.int64)
        self._labels = np.asarray(labels)
        self._positions = np.asarray(positions, dtype=float)
        self._scores = np.asarray(scores, dtype=float)
        self.n_frames = int(n_frames)
        self.leaf_capacity = int(leaf_capacity)
        self.max_depth = int(max_depth)
        self.summary_confidence = float(summary_confidence)
        self.stats = SpatialIndexStats()
        #: Epoch counter; bumps on every :meth:`updated` handoff.
        self.version: int = 0

        self._nodes: list[_Node] = []
        #: (leaf id, label or ``_ANY_LABEL``) -> its span and summary.
        self._spans: dict[tuple[int, str | None], _Span] = {}
        self._group(self._build())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> np.ndarray:
        """Recursive center-split quadtree build over the row set.

        Returns the rows in leaf order: each leaf's ``[start, end)``.
        """
        n = len(self._frame_index)
        self._nodes = []
        segments: list[np.ndarray] = []
        offset = 0

        def recurse(rows: np.ndarray, bounds: TileBounds | None, depth: int) -> int:
            nonlocal offset
            node_id = len(self._nodes)
            self._nodes.append(_Node(0, 0, None))  # placeholder
            extent = _tight_extent(self._positions, rows)
            if len(rows) <= self.leaf_capacity or depth >= self.max_depth:
                start = offset
                offset += len(rows)
                segments.append(rows)
                self._nodes[node_id] = _Node(start, offset, extent, leaves=(node_id,))
                return node_id
            # Split at the center of the node's geometric bounds; the
            # root splits at the center of the data's tight bbox.
            split_bounds = bounds if bounds is not None else extent
            assert split_bounds is not None  # non-empty: len(rows) > capacity >= 1
            center_x, center_y = split_bounds.center
            digits = _quadrant_digits(self._positions, rows, center_x, center_y)
            children = []
            start = offset
            for digit in range(4):
                child_rows = rows[digits == digit]
                children.append(
                    recurse(child_rows, split_bounds.quadrant(digit), depth + 1)
                )
            self._nodes[node_id] = _Node(
                start,
                offset,
                extent,
                center=(center_x, center_y),
                children=tuple(children),
                leaves=sum((self._nodes[child].leaves for child in children), ()),
            )
            return node_id

        recurse(np.arange(n, dtype=np.int64), None, 0)
        return np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)

    def _group(self, order: np.ndarray) -> None:
        """Put the columns in tile order, each leaf's rows grouped by label.

        One stable sort on (leaf, label) of the leaf-ordered rows keeps
        every leaf's span and makes each (leaf, label) pair a span of its
        own; the spans and their count summaries go into ``_spans``.
        """
        leaves = [
            (node_id, node)
            for node_id, node in enumerate(self._nodes)
            if node.is_leaf and node.n_rows
        ]
        names, codes = np.unique(self._labels[order], return_inverse=True)
        leaf_rank = np.repeat(
            np.arange(len(leaves), dtype=np.int64), [node.n_rows for _, node in leaves]
        )
        key = leaf_rank * len(names) + codes.reshape(-1)
        grouped = np.argsort(key, kind="stable")
        rows = order[grouped]
        key = key[grouped]
        self._frame_index = self._frame_index[rows]
        self._labels = self._labels[rows]
        self._positions = self._positions[rows]
        self._scores = self._scores[rows]

        # A (leaf, label) span starts wherever the sorted key changes.
        starts = np.flatnonzero(np.diff(key)) + 1
        bounds = [0, *starts.tolist(), len(key)] if len(key) else [0]
        span_of_row = np.zeros(len(key), dtype=np.int64)
        span_of_row[starts] = 1
        span_summaries = self._summaries(np.cumsum(span_of_row), len(bounds) - 1)
        spans: dict[tuple[int, str | None], _Span] = {}
        for (node_id, node), summary in zip(leaves, self._summaries(leaf_rank, len(leaves))):
            spans[(node_id, _ANY_LABEL)] = (node.start, node.end, summary)
        for lo, hi, summary in zip(bounds[:-1], bounds[1:], span_summaries):
            rank, code = divmod(int(key[lo]), len(names))
            spans[(leaves[rank][0], str(names[code]))] = (lo, hi, summary)
        self._spans = spans

    def _summaries(self, group: np.ndarray, n_groups: int) -> list[_Summary | None]:
        """Each row group's sparse count series at the summary confidence.

        ``group`` numbers the tile-ordered rows' groups ``0 .. n_groups - 1``,
        ascending; one ``unique`` over (group, frame) counts them all.
        """
        confident = self._scores >= self.summary_confidence
        stride = int(self._frame_index.max()) + 1 if len(group) else 1
        keys, counts = np.unique(
            group[confident] * stride + self._frame_index[confident], return_counts=True
        )
        bounds = np.searchsorted(keys, np.arange(n_groups + 1) * stride).tolist()
        frame_ids = keys % stride
        weights = counts.astype(float)
        return [
            (frame_ids[lo:hi], weights[lo:hi]) if hi > lo else None
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def updated(
        self,
        frame_index: np.ndarray,
        labels: np.ndarray,
        positions: np.ndarray,
        scores: np.ndarray,
        n_frames: int,
    ) -> SpatialTileIndex:
        """The successor tile index over new flat columns.

        A fresh build with this index's shape parameters, one
        :attr:`version` later.
        """
        successor = SpatialTileIndex(
            frame_index,
            labels,
            positions,
            scores,
            n_frames,
            leaf_capacity=self.leaf_capacity,
            max_depth=self.max_depth,
            summary_confidence=self.summary_confidence,
        )
        successor.version = self.version + 1
        return successor

    # ------------------------------------------------------------------
    # Pruned evaluation
    # ------------------------------------------------------------------
    def count_series(self, object_filter: ObjectFilter) -> np.ndarray:
        """Per-frame counts matching ``object_filter`` (pruned; exact).

        ``object_filter.spatial`` must be set — filters without a
        spatial predicate gain nothing from tiling and stay on the flat
        scan.  Bit-identical to the brute-force evaluation.
        """
        spatial = object_filter.spatial
        if spatial is None:
            raise ValueError("count_series requires a filter with a spatial predicate")
        overlaps, contains = tile_tests(spatial)
        pruned_leaves = 0
        contained: list[_Node] = []
        boundary: list[int] = []
        nodes = self._nodes
        stack = [0] if nodes else []
        while stack:
            node_id = stack.pop()
            node = nodes[node_id]
            if node.start == node.end:
                continue
            if not overlaps(node.extent):
                pruned_leaves += node.leaf_count
            elif contains(node.extent):
                contained.append(node)
            elif node.children is None:
                boundary.append(node_id)
            else:
                stack.extend(node.children)

        total = np.zeros(self.n_frames, dtype=float)
        stats = self.stats
        stats.queries += 1
        stats.tiles_pruned += pruned_leaves
        stats.tiles_contained += sum(node.leaf_count for node in contained)
        stats.tiles_boundary += len(boundary)
        stats.rows_total += len(self._frame_index)

        # Contained tiles: count summaries when the confidence cut
        # matches; otherwise the label's spans, masked by confidence only.
        label = object_filter.label
        use_summaries = object_filter.confidence == self.summary_confidence
        summary_frames: list[np.ndarray] = []
        summary_counts: list[np.ndarray] = []
        exact: list[_Span] = []
        for node in contained:
            leaf_spans = [
                span
                for leaf_id in node.leaves
                if (span := self._spans.get((leaf_id, label))) is not None
            ]
            if use_summaries:
                for _, _, summary in leaf_spans:
                    if summary is not None:
                        summary_frames.append(summary[0])
                        summary_counts.append(summary[1])
                stats.rows_summarized += node.n_rows
            else:
                exact += leaf_spans
        if summary_frames:
            total += np.bincount(
                np.concatenate(summary_frames),
                weights=np.concatenate(summary_counts),
                minlength=self.n_frames,
            )
        if exact:
            total += self._count_spans(
                replace(object_filter, label=None, spatial=None), exact
            )

        # Boundary tiles: exact evaluation over the label's spans only.
        scanned = [
            span
            for leaf_id in boundary
            if (span := self._spans.get((leaf_id, label))) is not None
        ]
        if scanned:
            stats.rows_scanned += sum(hi - lo for lo, hi, _ in scanned)
            total += self._count_spans(replace(object_filter, label=None), scanned)
        return total

    def _count_spans(self, object_filter: ObjectFilter, spans: list[_Span]) -> np.ndarray:
        """Per-frame counts of the rows in ``spans`` that ``object_filter`` keeps."""
        columns = (self._frame_index, self._labels, self._positions, self._scores)
        if len(spans) == 1:
            lo, hi, _ = spans[0]
            frames, labels, positions, scores = (column[lo:hi] for column in columns)
        else:
            frames, labels, positions, scores = (
                np.concatenate([column[lo:hi] for lo, hi, _ in spans]) for column in columns
            )
        mask = object_filter.mask(scores, labels, positions)
        return np.bincount(frames[mask], minlength=self.n_frames)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Rows (indexed objects) currently organized by the tree."""
        return int(len(self._frame_index))

    @property
    def n_tiles(self) -> int:
        """Total tiles (internal + leaf)."""
        return len(self._nodes)

    @property
    def n_leaves(self) -> int:
        return self._nodes[0].leaf_count if self._nodes else 0

    def stats_snapshot(self) -> dict[str, float]:
        """Cumulative pruning counters plus structural facts."""
        snapshot = self.stats.snapshot()
        snapshot.update(
            {
                "n_rows": self.n_rows,
                "n_tiles": self.n_tiles,
                "n_leaves": self.n_leaves,
                "version": self.version,
            }
        )
        return snapshot

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpatialTileIndex(rows={self.n_rows}, leaves={self.n_leaves}, "
            f"frames={self.n_frames}, version={self.version})"
        )


def _tight_extent(positions: np.ndarray, rows: np.ndarray) -> TileBounds | None:
    if not len(rows):
        return None
    xs = positions[rows, 0]
    ys = positions[rows, 1]
    return TileBounds(
        float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
    )


def _quadrant_digits(
    positions: np.ndarray, rows: np.ndarray, center_x: float, center_y: float
) -> np.ndarray:
    """Quadrant digit (0-3) of each row relative to a split center."""
    east = positions[rows, 0] >= center_x
    north = positions[rows, 1] >= center_y
    return east.astype(np.int64) + 2 * north.astype(np.int64)
