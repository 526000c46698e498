"""Query predicates (paper §2.1).

Two predicate families drive all queries in the paper:

* the **spatial predicate** ``Distance(Obj, center) [<=, >=] r`` filters
  objects by planar distance from the sensor;
* the **semantic predicate** ``|Obj| [<=, >=] num`` filters *frames* by
  the number of objects that survive the object-level filters.

An :class:`ObjectFilter` bundles the object-level conditions (label,
spatial predicate, confidence cut); a :class:`CountPredicate` is the
frame-level semantic condition applied to the resulting counts.  Both are
frozen and hashable, so count series can be memoized per filter.

Every count provider reduces to one primitive, the per-frame count
series of a filter over flat object rows: :meth:`ObjectFilter.mask` is
the only code that applies a filter to object rows, and
:meth:`ObjectRows.count_series` the one kernel that counts them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.data.annotations import ObjectArray
from repro.query.hashing import HashOnce

__all__ = [
    "COMPARISONS",
    "compare",
    "SpatialPredicate",
    "CountPredicate",
    "ObjectFilter",
    "ObjectRows",
    "DEFAULT_CONFIDENCE",
]

#: Comparison operators supported by predicates.  The paper's templates
#: (Tbl 2) use only ``<=`` and ``>=``; the strict forms come for free.
COMPARISONS: tuple[str, ...] = ("<=", ">=", "<", ">")

#: Confidence threshold for a predicted/detected box to count as present
#: (paper Example 5.2: "above 0.5 by default").
DEFAULT_CONFIDENCE: float = 0.5


def compare(values: np.ndarray, op: str, threshold: float) -> np.ndarray:
    """Vectorized comparison ``values op threshold`` -> boolean array."""
    values = np.asarray(values)
    if op == "<=":
        return values <= threshold
    if op == ">=":
        return values >= threshold
    if op == "<":
        return values < threshold
    if op == ">":
        return values > threshold
    raise ValueError(f"unsupported comparison {op!r}; options: {COMPARISONS}")


@dataclass(frozen=True)
class SpatialPredicate(HashOnce):
    """``Distance(Obj, center) op threshold`` in meters.

    The paper's spatial predicate.  Like the extended filters in
    :mod:`repro.query.spatial`, it also implements ``mask_positions``
    over sensor-frame xy positions, so all spatial filters share one
    evaluation protocol — plus the tile-classification protocol
    (``tile_bounds_overlap`` / ``tile_bounds_contained``) the
    :mod:`repro.spatial` index uses to prune whole tiles.
    """

    __hash__ = HashOnce.__hash__

    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise ValueError(f"unsupported comparison {self.op!r}")
        if not self.threshold >= 0:
            raise ValueError(f"distance threshold must be >= 0, got {self.threshold}")

    def mask(self, distances: np.ndarray) -> np.ndarray:
        """Boolean mask over per-object distances."""
        return compare(distances, self.op, self.threshold)

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask over ``(N, 2)`` sensor-frame positions."""
        positions = np.asarray(positions, dtype=float)
        return self.mask(np.hypot(positions[:, 0], positions[:, 1]))

    # -- tile classification (see repro.spatial) -----------------------
    def tile_bounds_overlap(self, bounds) -> bool:
        """Could any point inside ``bounds`` satisfy this predicate?"""
        low, high = _box_distance_range(bounds)
        if self.op in ("<=", "<"):
            return bool(compare(np.array([low]), self.op, self.threshold)[0])
        return bool(compare(np.array([high]), self.op, self.threshold)[0])

    def tile_bounds_contained(self, bounds) -> bool:
        """Does every point inside ``bounds`` satisfy this predicate?"""
        low, high = _box_distance_range(bounds)
        if self.op in ("<=", "<"):
            return bool(compare(np.array([high]), self.op, self.threshold)[0])
        return bool(compare(np.array([low]), self.op, self.threshold)[0])

    def describe(self) -> str:
        return f"dist {self.op} {self.threshold:g}"


def _box_distance_range(bounds) -> tuple[float, float]:
    """(min, max) distance from the origin over a closed axis-aligned box.

    ``bounds`` is anything with ``x_min/y_min/x_max/y_max`` attributes
    (the tile-extent protocol of :mod:`repro.spatial.tiles`).
    """
    closest_x = min(max(0.0, bounds.x_min), bounds.x_max)
    closest_y = min(max(0.0, bounds.y_min), bounds.y_max)
    low = float(np.hypot(closest_x, closest_y))
    farthest_x = max(abs(bounds.x_min), abs(bounds.x_max))
    farthest_y = max(abs(bounds.y_min), abs(bounds.y_max))
    high = float(np.hypot(farthest_x, farthest_y))
    return low, high


@dataclass(frozen=True)
class CountPredicate(HashOnce):
    """The semantic predicate ``|Obj| op threshold`` over per-frame counts."""

    __hash__ = HashOnce.__hash__

    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.op not in COMPARISONS:
            raise ValueError(f"unsupported comparison {self.op!r}")

    def mask(self, counts: np.ndarray) -> np.ndarray:
        """Boolean mask over per-frame counts."""
        return compare(counts, self.op, self.threshold)

    def describe(self) -> str:
        return f"count {self.op} {self.threshold:g}"


@dataclass(frozen=True)
class ObjectFilter(HashOnce):
    """Object-level filter: label + optional spatial filter + confidence cut.

    ``label=None`` matches every object class.  ``spatial`` is any
    filter implementing ``mask_positions`` — the paper's distance
    predicate (:class:`SpatialPredicate`), a sector/region filter, or an
    :class:`~repro.query.spatial.AllOf` conjunction of them.  The
    confidence threshold implements the appearance mechanism of ST
    prediction (boxes whose decayed/grown confidence falls below it do
    not count).
    """

    __hash__ = HashOnce.__hash__

    label: str | None = None
    spatial: object | None = None
    confidence: float = DEFAULT_CONFIDENCE

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.spatial is not None and not hasattr(self.spatial, "mask_positions"):
            raise TypeError(
                "spatial filter must implement mask_positions(positions); "
                f"got {type(self.spatial).__name__}"
            )

    def mask(
        self, scores: np.ndarray, labels: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Which object rows satisfy this filter.

        The rows are parallel columns: confidence scores, labels and
        ``(N, 2)`` sensor-frame xy positions.
        """
        return _RowMasks(scores, labels, positions).of(self)

    def count(self, objects: ObjectArray) -> int:
        """Number of objects in one frame's set satisfying this filter."""
        return int(
            self.mask(objects.scores, objects.labels, objects.centers[:, :2]).sum()
        )

    def describe(self) -> str:
        parts = [self.label or "*"]
        if self.spatial is not None:
            parts.append(self.spatial.describe())
        if self.confidence != DEFAULT_CONFIDENCE:
            parts.append(f"conf {self.confidence:g}")
        return " ".join(parts)


class _RowMasks:
    """Filter masks over one set of object rows.

    Every filter asked of the same rows shares one confidence mask per
    cut, one label mask per label and one computation of the sensor
    distances (for :class:`SpatialPredicate` cuts) — the dominant cost
    when a workload repeats a label over many distance cuts.
    """

    def __init__(
        self, scores: np.ndarray, labels: np.ndarray, positions: np.ndarray
    ) -> None:
        self._scores = scores
        self._labels = labels
        self._positions = positions
        self._confident: dict[float, np.ndarray] = {}
        self._labelled: dict[str, np.ndarray] = {}
        self._distances: np.ndarray | None = None

    def of(self, object_filter: ObjectFilter) -> np.ndarray:
        """The mask of ``object_filter``; read-only (it may be shared)."""
        cut = object_filter.confidence
        mask = self._confident.get(cut)
        if mask is None:
            mask = self._confident[cut] = self._scores >= cut
        label = object_filter.label
        if label is not None:
            same = self._labelled.get(label)
            if same is None:
                same = self._labelled[label] = self._labels == label
            mask = mask & same
        spatial = object_filter.spatial
        if isinstance(spatial, SpatialPredicate):
            if self._distances is None:
                positions = np.asarray(self._positions, dtype=float)
                self._distances = np.hypot(positions[:, 0], positions[:, 1])
            mask = mask & spatial.mask(self._distances)
        elif spatial is not None:
            mask = mask & spatial.mask_positions(self._positions)
        return mask


class ObjectRows(NamedTuple):
    """Object rows as parallel columns, binned by ``frame_index``.

    The bin is usually a frame id; the linear count provider bins by
    sample position instead.
    """

    frame_index: np.ndarray
    labels: np.ndarray
    positions: np.ndarray
    scores: np.ndarray

    @classmethod
    def flatten(cls, objects_by_frame: Mapping[int, ObjectArray]) -> ObjectRows:
        """The rows of a ``{frame: ObjectArray}`` map, in its order."""
        frames = [(frame, objects) for frame, objects in objects_by_frame.items() if len(objects)]
        if not frames:
            return cls.concatenate([])
        return cls(
            np.repeat(
                np.array([frame for frame, _ in frames], dtype=np.int64),
                [len(objects) for _, objects in frames],
            ),
            np.concatenate([objects.labels for _, objects in frames]),
            np.concatenate([objects.centers[:, :2] for _, objects in frames]),
            np.concatenate([objects.scores for _, objects in frames]),
        )

    @classmethod
    def concatenate(cls, parts: Iterable[ObjectRows]) -> ObjectRows:
        """One row set from several, in order (empty parts are skipped)."""
        parts = [part for part in parts if len(part.frame_index)]
        if not parts:
            return cls(
                np.zeros(0, dtype=np.int64),
                np.empty(0, dtype="<U16"),
                np.zeros((0, 2)),
                np.zeros(0),
            )
        return cls(*(np.concatenate(column) for column in zip(*parts)))

    def span(self, lo: int, hi: int | None = None) -> ObjectRows:
        """Rows ``[lo, hi)`` (to the end when ``hi`` is ``None``), as views."""
        return ObjectRows(*(column[lo:hi] for column in self))

    def count_series(
        self, filters: Iterable[ObjectFilter], n_frames: int, *, start: int = 0
    ) -> dict[ObjectFilter, np.ndarray]:
        """Per-frame counts of the rows each filter keeps, frames ``[start, n_frames)``.

        A ``start`` needs the rows in frame order (``frame_index``
        non-decreasing): the rows of frames ``start`` on are then one
        :meth:`span`, found with one search, and nothing is masked or
        copied.  All filters of one call share their confidence masks,
        label masks and sensor distances.  Counts are integers in
        float64, so the result does not depend on the order of one
        frame's rows.
        """
        rows = self.span(int(self.frame_index.searchsorted(start))) if start else self
        masks = _RowMasks(rows.scores, rows.labels, rows.positions)
        frames = rows.frame_index - start
        return {
            object_filter: np.bincount(
                frames[masks.of(object_filter)], minlength=n_frames - start
            ).astype(float)
            for object_filter in dict.fromkeys(filters)
        }
