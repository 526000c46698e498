"""Property test: tiled spatial evaluation ≡ the brute-force scan.

The quadtree (:class:`~repro.spatial.SpatialTileIndex`) claims
bit-identity with the flat column scan for *every* spatial filter, tree
shape, and update history.  The flat scan is kept inline as the
executable specification; Hypothesis drives random worlds (clustered —
uniform points rarely stress tile boundaries), random predicates, and
random tile depths, including successors built by ``updated``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.predicates import DEFAULT_CONFIDENCE, ObjectFilter, SpatialPredicate
from repro.query.spatial import (
    AllOf,
    RegionPredicate,
    SectorPredicate,
    TilePredicate,
)
from repro.spatial import SpatialTileIndex

LABELS = ("Car", "Pedestrian", "Cyclist", "Truck")


def brute_force(columns, object_filter):
    frame_index, labels, positions, scores, n_frames = columns
    mask = scores >= object_filter.confidence
    if object_filter.label is not None:
        mask = mask & (labels == object_filter.label)
    if object_filter.spatial is not None:
        mask = mask & object_filter.spatial.mask_positions(positions)
    return np.bincount(frame_index[mask], minlength=n_frames).astype(float)


def make_columns(rng, n, n_frames, spread):
    """Clustered positions: a few gaussian blobs plus uniform noise."""
    n_clusters = int(rng.integers(1, 5))
    centers = rng.uniform(-spread, spread, (n_clusters, 2))
    assignment = rng.integers(0, n_clusters, n)
    positions = centers[assignment] + rng.normal(0.0, spread / 6.0, (n, 2))
    uniform = rng.random(n) < 0.2
    positions[uniform] = rng.uniform(-spread, spread, (int(uniform.sum()), 2))
    return (
        np.sort(rng.integers(0, n_frames, n)).astype(np.int64),
        np.array(LABELS)[rng.integers(0, len(LABELS), n)],
        positions,
        rng.uniform(0.0, 1.0, n),
        n_frames,
    )


def make_spatial(rng, spread):
    kind = rng.integers(0, 5)
    if kind == 0:
        x = np.sort(rng.uniform(-spread * 1.2, spread * 1.2, 2))
        y = np.sort(rng.uniform(-spread * 1.2, spread * 1.2, 2))
        return RegionPredicate(x[0], y[0], x[1], y[1])
    if kind == 1:
        start = float(rng.uniform(-180.0, 180.0))
        span = float(rng.uniform(1.0, 360.0))
        return SectorPredicate(start, start + span)
    if kind == 2:
        op = ("<=", ">=", "<", ">")[rng.integers(0, 4)]
        return SpatialPredicate(op, float(rng.uniform(0.0, spread * 1.5)))
    if kind == 3:
        depth = int(rng.integers(1, 7))
        path = "".join(str(d) for d in rng.integers(0, 4, depth))
        return TilePredicate(path)
    return AllOf((make_spatial_simple(rng, spread), make_spatial_simple(rng, spread)))


def make_spatial_simple(rng, spread):
    while True:
        spatial = make_spatial(rng, spread)
        if not isinstance(spatial, AllOf):
            return spatial


def make_filter(rng, spread):
    label = (None, *LABELS)[rng.integers(0, len(LABELS) + 1)]
    confidence = (DEFAULT_CONFIDENCE, DEFAULT_CONFIDENCE, 0.0, 0.73)[
        rng.integers(0, 4)
    ]
    return ObjectFilter(label, make_spatial(rng, spread), confidence=confidence)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=0, max_value=500),
    leaf_capacity=st.integers(min_value=1, max_value=64),
    max_depth=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_tiled_equals_brute_force(seed, n, leaf_capacity, max_depth):
    rng = np.random.default_rng(seed)
    spread = float(rng.uniform(10.0, 4000.0))
    columns = make_columns(rng, n, n_frames=int(rng.integers(1, 60)), spread=spread)
    index = SpatialTileIndex(
        *columns, leaf_capacity=leaf_capacity, max_depth=max_depth
    )
    for _ in range(4):
        object_filter = make_filter(rng, spread)
        assert np.array_equal(
            index.count_series(object_filter),
            brute_force(columns, object_filter),
        ), object_filter.describe()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=300),
    leaf_capacity=st.integers(min_value=1, max_value=32),
    n_extends=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_incremental_update_equals_brute_force(seed, n, leaf_capacity, n_extends):
    rng = np.random.default_rng(seed)
    spread = float(rng.uniform(10.0, 1000.0))
    columns = make_columns(rng, n, n_frames=int(rng.integers(2, 40)), spread=spread)
    index = SpatialTileIndex(*columns, leaf_capacity=leaf_capacity, max_depth=8)

    for step in range(n_extends):
        frame_index, labels, positions, scores, n_frames = columns
        extra_n = int(rng.integers(1, 400))
        extra_frames = int(rng.integers(1, 20))
        new_frames = np.sort(
            rng.integers(n_frames, n_frames + extra_frames, extra_n)
        ).astype(np.int64)
        # New positions may drift outside the original bbox.
        drift = spread * (1.0 + step)
        columns = (
            np.concatenate([frame_index, new_frames]),
            np.concatenate(
                [labels, np.array(LABELS)[rng.integers(0, len(LABELS), extra_n)]]
            ),
            np.vstack([positions, rng.uniform(-drift, drift, (extra_n, 2))]),
            np.concatenate([scores, rng.uniform(0.0, 1.0, extra_n)]),
            n_frames + extra_frames,
        )
        index = index.updated(*columns)
        assert index.version == step + 1

    for _ in range(4):
        object_filter = make_filter(rng, spread)
        assert np.array_equal(
            index.count_series(object_filter),
            brute_force(columns, object_filter),
        ), object_filter.describe()
