"""Extended spatial filters and the spatial-operator registry.

The paper's evaluation uses one spatial predicate — distance from the
sensor — but notes that "other spatial filters can be also supported by
adding spatial operators" (§2.1) and lists "intricate spatial ...
filters" as future work (§8).  This module provides that extension
surface:

* :class:`SectorPredicate` — objects within an angular field of view
  (e.g. "in front of the vehicle");
* :class:`RegionPredicate` — objects inside an axis-aligned BEV window;
* :class:`AllOf` — conjunction of spatial filters ("within 20 m *and*
  in the front sector");
* a keyword registry the query parser consults, so new operators become
  usable from query text without touching the parser
  (``register_spatial_operator``).

Every spatial filter implements ``mask_positions(xy) -> bool[N]`` over
sensor-frame object positions; the distance predicate in
:mod:`repro.query.predicates` implements the same protocol.

Filters additionally participate in the **tile-classification protocol**
used by the :mod:`repro.spatial` hierarchy to prune region queries:

* ``tile_bounds_overlap(bounds) -> bool`` — may any point inside the
  closed axis-aligned box ``bounds`` satisfy the filter?  ``False``
  lets the index skip the tile (and everything in it) wholesale.
* ``tile_bounds_contained(bounds) -> bool`` — does *every* point inside
  ``bounds`` satisfy the filter?  ``True`` lets the index answer the
  tile from count summaries without touching a single box.

Both are allowed to be conservative (``overlap=True`` /
``contained=False`` is always sound — the tile just falls back to exact
per-object evaluation), and filters that do not implement the protocol
are treated exactly that way via :func:`tile_tests` (and
:func:`filter_tile_overlap` / :func:`filter_tile_contained`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.query.hashing import HashOnce

__all__ = [
    "SpatialFilter",
    "SectorPredicate",
    "RegionPredicate",
    "TilePredicate",
    "AllOf",
    "conjoin_spatial",
    "filter_tile_overlap",
    "filter_tile_contained",
    "tile_tests",
    "register_spatial_operator",
    "spatial_operator_keywords",
    "spatial_operator_arg_count",
    "spatial_operator_epoch",
    "is_spatial_operator",
    "build_spatial_operator",
]


@runtime_checkable
class SpatialFilter(Protocol):
    """Anything that can mask sensor-frame object positions."""

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask over ``(N, 2)`` xy positions."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """Human-readable form used by ``Query.describe``."""
        ...  # pragma: no cover - protocol


def _as_positions(positions) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must have shape (N, 2), got {positions.shape}")
    return positions


@dataclass(frozen=True)
class SectorPredicate(HashOnce):
    """Objects within an angular sector of the sensor.

    Angles are degrees counter-clockwise from the sensor's forward (+x)
    axis; the sector spans from ``start_deg`` to ``end_deg`` going
    counter-clockwise.  ``SECTOR -45 45`` is a 90-degree forward cone.
    """

    __hash__ = HashOnce.__hash__

    start_deg: float
    end_deg: float

    def __post_init__(self) -> None:
        span = self.end_deg - self.start_deg
        if not 0.0 < span <= 360.0:
            raise ValueError(
                f"sector must span (0, 360] degrees (end_deg - start_deg), "
                f"got [{self.start_deg}, {self.end_deg}]; express wraparound "
                f"sectors with end_deg > 360 (e.g. 350 to 370)"
            )

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        positions = _as_positions(positions)
        angles = np.degrees(np.arctan2(positions[:, 1], positions[:, 0]))
        relative = (angles - self.start_deg) % 360.0
        return relative <= (self.end_deg - self.start_deg)

    # -- tile classification (see repro.spatial) -----------------------
    def tile_bounds_overlap(self, bounds) -> bool:
        span = self.end_deg - self.start_deg
        if span >= 360.0:
            return True
        if span <= 180.0:
            return not _wedge_box_disjoint(self.start_deg, span, bounds)
        # Non-convex sector: the union of two closed convex half-wedges.
        return not (
            _wedge_box_disjoint(self.start_deg, 180.0, bounds)
            and _wedge_box_disjoint(self.start_deg + 180.0, span - 180.0, bounds)
        )

    def tile_bounds_contained(self, bounds) -> bool:
        span = self.end_deg - self.start_deg
        if span >= 360.0:
            return True
        if span <= 180.0:
            # The closed wedge is convex, so four corners inside suffice.
            return bool(np.all(self.mask_positions(_box_corners(bounds))))
        # Contained in the (non-convex) sector iff disjoint from the
        # closed complement wedge — conservative only at its boundary.
        return _wedge_box_disjoint(self.end_deg, 360.0 - span, bounds)

    def describe(self) -> str:
        return f"sector {self.start_deg:g} {self.end_deg:g}"


@dataclass(frozen=True)
class RegionPredicate(HashOnce):
    """Objects inside an axis-aligned bird's-eye-view window."""

    __hash__ = HashOnce.__hash__

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(
                f"region must have positive extent, got "
                f"x=[{self.x_min}, {self.x_max}] y=[{self.y_min}, {self.y_max}]"
            )

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        positions = _as_positions(positions)
        return (
            (positions[:, 0] >= self.x_min)
            & (positions[:, 0] <= self.x_max)
            & (positions[:, 1] >= self.y_min)
            & (positions[:, 1] <= self.y_max)
        )

    # -- tile classification (see repro.spatial) -----------------------
    def tile_bounds_overlap(self, bounds) -> bool:
        return (
            bounds.x_min <= self.x_max
            and bounds.x_max >= self.x_min
            and bounds.y_min <= self.y_max
            and bounds.y_max >= self.y_min
        )

    def tile_bounds_contained(self, bounds) -> bool:
        return (
            self.x_min <= bounds.x_min
            and bounds.x_max <= self.x_max
            and self.y_min <= bounds.y_min
            and bounds.y_max <= self.y_max
        )

    def describe(self) -> str:
        return (
            f"region {self.x_min:g} {self.y_min:g} {self.x_max:g} {self.y_max:g}"
        )


@dataclass(frozen=True)
class TilePredicate(HashOnce):
    """Objects inside one canonical quadtree tile (``TILE <path>``).

    ``path`` is a string of quadrant digits descending from the fixed
    canonical root square (:data:`repro.spatial.tiles.CANONICAL_ROOT`):
    ``0`` = south-west, ``1`` = south-east, ``2`` = north-west, ``3`` =
    north-east.  The tile's bounds are a pure function of the path, so
    the predicate stays frozen/hashable and evaluates standalone — the
    spatial hierarchy merely accelerates it like any other region.
    """

    __hash__ = HashOnce.__hash__

    path: str

    def __post_init__(self) -> None:
        if not self.path or any(digit not in "0123" for digit in self.path):
            raise ValueError(
                f"tile path must be a non-empty string of quadrant digits "
                f"0-3, got {self.path!r}"
            )
        if len(self.path) > 24:
            raise ValueError(f"tile path deeper than 24 levels: {self.path!r}")

    def _region(self) -> RegionPredicate:
        from repro.spatial.tiles import tile_path_bounds

        bounds = tile_path_bounds(self.path)
        return RegionPredicate(bounds.x_min, bounds.y_min, bounds.x_max, bounds.y_max)

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        return self._region().mask_positions(positions)

    def tile_bounds_overlap(self, bounds) -> bool:
        return self._region().tile_bounds_overlap(bounds)

    def tile_bounds_contained(self, bounds) -> bool:
        return self._region().tile_bounds_contained(bounds)

    def describe(self) -> str:
        return f"tile {self.path}"


@dataclass(frozen=True)
class AllOf(HashOnce):
    """Conjunction of spatial filters (all must hold)."""

    __hash__ = HashOnce.__hash__

    filters: tuple

    def __post_init__(self) -> None:
        if len(self.filters) < 1:
            raise ValueError("AllOf needs at least one filter")

    def mask_positions(self, positions: np.ndarray) -> np.ndarray:
        positions = _as_positions(positions)
        mask = np.ones(len(positions), dtype=bool)
        for spatial_filter in self.filters:
            mask &= spatial_filter.mask_positions(positions)
        return mask

    # -- tile classification (see repro.spatial) -----------------------
    def tile_bounds_overlap(self, bounds) -> bool:
        # Conservative: each conjunct may overlap the tile without the
        # conjunction doing so; such tiles just evaluate exactly.
        return all(filter_tile_overlap(f, bounds) for f in self.filters)

    def tile_bounds_contained(self, bounds) -> bool:
        return all(filter_tile_contained(f, bounds) for f in self.filters)

    def describe(self) -> str:
        return " ".join(f.describe() for f in self.filters)


def conjoin_spatial(existing, extra):
    """Conjoin ``extra`` onto an optional existing spatial filter.

    Used by the parser's ``WITHIN ...`` scope to push a region predicate
    into every object filter of a query; flattens into an existing
    :class:`AllOf` rather than nesting.
    """
    if existing is None:
        return extra
    if isinstance(existing, AllOf):
        return AllOf(existing.filters + (extra,))
    return AllOf((existing, extra))


# ----------------------------------------------------------------------
# Tile-classification helpers
# ----------------------------------------------------------------------

def tile_tests(spatial_filter) -> tuple[Callable[[object], bool], Callable[[object], bool]]:
    """Sound ``(tile_bounds_overlap, tile_bounds_contained)`` of any spatial filter.

    Filters that do not implement the protocol (e.g. operators
    registered at runtime) are treated as overlapping every tile and
    containing none, which only costs pruning opportunity, never
    correctness.  A tile walk looks the pair up once per filter.
    """
    return (
        getattr(spatial_filter, "tile_bounds_overlap", _overlaps_every_tile),
        getattr(spatial_filter, "tile_bounds_contained", _contains_no_tile),
    )


def _overlaps_every_tile(bounds) -> bool:
    return True


def _contains_no_tile(bounds) -> bool:
    return False


def filter_tile_overlap(spatial_filter, bounds) -> bool:
    """Sound ``tile_bounds_overlap`` for any spatial filter."""
    return bool(getattr(spatial_filter, "tile_bounds_overlap", _overlaps_every_tile)(bounds))


def filter_tile_contained(spatial_filter, bounds) -> bool:
    """Sound ``tile_bounds_contained`` for any spatial filter."""
    return bool(getattr(spatial_filter, "tile_bounds_contained", _contains_no_tile)(bounds))


def _box_corners(bounds) -> np.ndarray:
    """``(4, 2)`` corner array of a closed axis-aligned box."""
    return np.array(
        [
            (bounds.x_min, bounds.y_min),
            (bounds.x_max, bounds.y_min),
            (bounds.x_min, bounds.y_max),
            (bounds.x_max, bounds.y_max),
        ],
        dtype=float,
    )


def _wedge_box_disjoint(start_deg: float, span_deg: float, bounds) -> bool:
    """Whether a closed convex wedge (apex at origin) misses a closed box.

    ``span_deg`` must be in (0, 180].  Exact for strict separation via
    the separating-axis test over the box normals and the wedge edge
    normals; touching sets report *not* disjoint, which is the
    conservative direction (the tile is evaluated exactly).
    """
    start = math.radians(start_deg)
    if span_deg >= 180.0:
        # Half-plane {x : n . x >= 0} on the counter-clockwise side of
        # the start ray.
        normal_x, normal_y = -math.sin(start), math.cos(start)
        corners = _box_corners(bounds)
        return bool(np.max(corners @ np.array([normal_x, normal_y])) < 0.0)
    end = math.radians(start_deg + span_deg)
    edge_start = np.array([math.cos(start), math.sin(start)])
    edge_end = np.array([math.cos(end), math.sin(end)])
    corners = _box_corners(bounds)
    # Axes: box face normals plus wedge edge normals (separating-axis
    # theorem over two convex sets).
    axes = (
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([-edge_start[1], edge_start[0]]),  # inward normal of start ray
        np.array([edge_end[1], -edge_end[0]]),  # inward normal of end ray
    )
    for axis in axes:
        box_low = float(np.min(corners @ axis))
        box_high = float(np.max(corners @ axis))
        span_projections = (float(edge_start @ axis), float(edge_end @ axis))
        wedge_low = -math.inf if min(span_projections) < 0.0 else 0.0
        wedge_high = math.inf if max(span_projections) > 0.0 else 0.0
        if box_high < wedge_low or box_low > wedge_high:
            return True
    return False


# ----------------------------------------------------------------------
# Parser-facing operator registry
# ----------------------------------------------------------------------

#: keyword -> (number of numeric arguments, constructor)
_SPATIAL_OPERATORS: dict[str, tuple[int, Callable[..., object]]] = {
    "SECTOR": (2, SectorPredicate),
    "REGION": (4, RegionPredicate),
}

#: Bumped by every registration; the parser keys its memo on it.
_operator_epoch = 0


def register_spatial_operator(
    keyword: str,
    n_args: int,
    factory: Callable[..., object],
    *,
    overwrite: bool = False,
) -> None:
    """Make a spatial filter constructible from query text.

    ``keyword`` becomes usable inside ``COUNT(...)``: the parser reads
    ``n_args`` numbers after it and calls ``factory(*numbers)``.  The
    factory must return an object implementing :class:`SpatialFilter`.
    """
    global _operator_epoch
    keyword = keyword.upper()
    if keyword in ("DIST", "CONF"):
        raise ValueError(f"{keyword!r} is reserved by the core grammar")
    if keyword in _SPATIAL_OPERATORS and not overwrite:
        raise ValueError(f"spatial operator {keyword!r} is already registered")
    if n_args < 0:
        raise ValueError("n_args must be non-negative")
    _SPATIAL_OPERATORS[keyword] = (int(n_args), factory)
    _operator_epoch += 1


def spatial_operator_epoch() -> int:
    """How many registrations the operator table has seen."""
    return _operator_epoch


def spatial_operator_keywords() -> list[str]:
    """Registered spatial-operator keywords, sorted."""
    return sorted(_SPATIAL_OPERATORS)


def build_spatial_operator(keyword: str, args: list[float]):
    """Instantiate a registered spatial operator (parser hook)."""
    keyword = keyword.upper()
    if keyword not in _SPATIAL_OPERATORS:
        raise ValueError(
            f"unknown spatial operator {keyword!r}; "
            f"options: {spatial_operator_keywords()}"
        )
    n_args, factory = _SPATIAL_OPERATORS[keyword]
    if len(args) != n_args:
        raise ValueError(
            f"spatial operator {keyword} expects {n_args} arguments, "
            f"got {len(args)}"
        )
    return factory(*args)


def spatial_operator_arg_count(keyword: str) -> int:
    """Number of numeric arguments a registered operator consumes."""
    keyword = keyword.upper()
    if keyword not in _SPATIAL_OPERATORS:
        raise ValueError(f"unknown spatial operator {keyword!r}")
    return _SPATIAL_OPERATORS[keyword][0]


def is_spatial_operator(keyword: str) -> bool:
    """Whether ``keyword`` names a registered spatial operator."""
    return keyword.upper() in _SPATIAL_OPERATORS
