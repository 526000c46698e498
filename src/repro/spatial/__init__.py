"""Spatial tiling index over the BEV plane (quadtree + count summaries).

The package has two layers:

* :mod:`repro.spatial.tiles` — tile geometry: :class:`TileBounds`, the
  canonical ``TILE <path>`` grid, and path resolution;
* :mod:`repro.spatial.index` — :class:`SpatialTileIndex`, the quadtree
  over indexed object positions that answers spatial count-series
  queries by pruning whole tiles, with per-(tile, class) count
  summaries built with the tree.

The index plugs into :class:`~repro.core.index.MASTIndex`, which builds
it for the first region-shaped query, routes region-shaped filters
through it, and builds its successor's tiles on every rebuild (``extend``,
a re-plan, a re-``fit``).  It is exercised end-to-end by the corpus and
streaming services.
"""

from repro.spatial.index import (
    DEFAULT_LEAF_CAPACITY,
    DEFAULT_MAX_DEPTH,
    SpatialIndexStats,
    SpatialTileIndex,
)
from repro.spatial.tiles import (
    CANONICAL_ROOT,
    MAX_TILE_DEPTH,
    WORLD_HALF_EXTENT,
    TileBounds,
    tile_path_bounds,
    validate_tile_path,
)

__all__ = [
    "SpatialTileIndex",
    "SpatialIndexStats",
    "DEFAULT_LEAF_CAPACITY",
    "DEFAULT_MAX_DEPTH",
    "TileBounds",
    "CANONICAL_ROOT",
    "WORLD_HALF_EXTENT",
    "MAX_TILE_DEPTH",
    "tile_path_bounds",
    "validate_tile_path",
]
