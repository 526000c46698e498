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
  confidence cut matches the summary cut; otherwise their rows are
  re-masked by label/confidence only — still no geometry);
* only *boundary* tiles fall back to exact ``mask_positions`` over
  their rows.

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
from repro.query.spatial import filter_tile_contained, filter_tile_overlap
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
    #: Rows whose positions were actually tested by ``mask_positions``.
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
    #: Leaf tiles in this node's subtree (1 for leaves).
    leaf_count: int = 1

    @property
    def is_leaf(self) -> bool:
        return self.center is None

    @property
    def n_rows(self) -> int:
        return self.end - self.start


#: Sparse per-(leaf, label) count summary: (unique frame ids, counts).
_Summary = tuple[np.ndarray, np.ndarray]


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
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._summaries: dict[tuple[int, str | None], _Summary] = {}
        self._build()
        self._build_summaries()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Recursive center-split quadtree build over the row set."""
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
                self._nodes[node_id] = _Node(start, offset, extent)
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
            node = _Node(
                start,
                offset,
                extent,
                center=(center_x, center_y),
                children=tuple(children),
            )
            node.leaf_count = sum(self._nodes[c].leaf_count for c in children)
            self._nodes[node_id] = node
            return node_id

        recurse(np.arange(n, dtype=np.int64), None, 0)
        self._order = (
            np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)
        )

    def _build_summaries(self) -> None:
        """Per-(leaf, label) sparse count series at the summary confidence."""
        summaries: dict[tuple[int, str | None], _Summary] = {}
        for node_id, node in enumerate(self._nodes):
            if not node.is_leaf or node.n_rows == 0:
                continue
            rows = self._order[node.start : node.end]
            rows = rows[self._scores[rows] >= self.summary_confidence]
            if not len(rows):
                continue
            frames = self._frame_index[rows]
            row_labels = self._labels[rows]
            frame_ids, counts = np.unique(frames, return_counts=True)
            summaries[(node_id, _ANY_LABEL)] = (frame_ids, counts.astype(float))
            for label in np.unique(row_labels):
                selector = row_labels == label
                frame_ids, counts = np.unique(frames[selector], return_counts=True)
                summaries[(node_id, str(label))] = (frame_ids, counts.astype(float))
        self._summaries = summaries

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
        pruned_leaves = 0
        contained: list[int] = []
        boundary: list[_Node] = []
        if self._nodes:
            stack = [0]
            while stack:
                node_id = stack.pop()
                node = self._nodes[node_id]
                if node.n_rows == 0:
                    continue
                assert node.extent is not None
                if not filter_tile_overlap(spatial, node.extent):
                    pruned_leaves += node.leaf_count
                    continue
                if filter_tile_contained(spatial, node.extent):
                    contained.append(node_id)
                    continue
                if node.is_leaf:
                    boundary.append(node)
                else:
                    assert node.children is not None
                    stack.extend(node.children)

        total = np.zeros(self.n_frames, dtype=float)
        stats = self.stats
        stats.queries += 1
        stats.tiles_pruned += pruned_leaves
        stats.tiles_contained += sum(
            self._nodes[node_id].leaf_count for node_id in contained
        )
        stats.tiles_boundary += len(boundary)
        stats.rows_total += len(self._frame_index)

        # Contained tiles: count summaries when the confidence cut
        # matches; otherwise label/confidence masking without geometry.
        use_summaries = object_filter.confidence == self.summary_confidence
        summary_frames: list[np.ndarray] = []
        summary_counts: list[np.ndarray] = []
        exact_rows: list[np.ndarray] = []
        for node_id in contained:
            node = self._nodes[node_id]
            if use_summaries:
                for leaf_id in self._leaves_under(node_id):
                    entry = self._summaries.get((leaf_id, object_filter.label))
                    if entry is not None:
                        summary_frames.append(entry[0])
                        summary_counts.append(entry[1])
                stats.rows_summarized += node.n_rows
            else:
                exact_rows.append(self._order[node.start : node.end])
        if summary_frames:
            total += np.bincount(
                np.concatenate(summary_frames),
                weights=np.concatenate(summary_counts),
                minlength=self.n_frames,
            )
        if exact_rows:
            total += self._count_rows(
                replace(object_filter, spatial=None), np.concatenate(exact_rows)
            )

        # Boundary tiles: exact evaluation over their rows only.
        if boundary:
            rows = np.concatenate(
                [self._order[node.start : node.end] for node in boundary]
            )
            stats.rows_scanned += len(rows)
            total += self._count_rows(object_filter, rows)
        return total

    def _count_rows(self, object_filter: ObjectFilter, rows: np.ndarray) -> np.ndarray:
        """Per-frame counts of the given rows that ``object_filter`` keeps."""
        mask = object_filter.mask(
            self._scores[rows], self._labels[rows], self._positions[rows]
        )
        return np.bincount(self._frame_index[rows][mask], minlength=self.n_frames)

    def _leaves_under(self, node_id: int) -> list[int]:
        """Leaf node ids in a subtree."""
        leaves: list[int] = []
        stack = [node_id]
        while stack:
            current_id = stack.pop()
            current = self._nodes[current_id]
            if current.is_leaf:
                leaves.append(current_id)
            else:
                assert current.children is not None
                stack.extend(current.children)
        return leaves

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
