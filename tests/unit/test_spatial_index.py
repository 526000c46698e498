"""Unit tests for the BEV quadtree tile index (:mod:`repro.spatial`).

The load-bearing property — tiled evaluation is *bit-identical* to the
brute-force scan — is pinned here on deterministic fixtures (and
explored on random instances in ``tests/property``), alongside the
structural invariants that make it true: the leaves partition the rows,
classification is sound, and a successor index is a fresh build of both.
"""

import numpy as np
import pytest

from repro.query.predicates import DEFAULT_CONFIDENCE, ObjectFilter
from repro.query.spatial import (
    AllOf,
    RegionPredicate,
    SectorPredicate,
    TilePredicate,
)
from repro.spatial import (
    CANONICAL_ROOT,
    MAX_TILE_DEPTH,
    SpatialTileIndex,
    TileBounds,
    tile_path_bounds,
    validate_tile_path,
)

LABELS = np.array(["Car", "Pedestrian", "Cyclist"])


def make_columns(n=600, n_frames=40, seed=7, spread=80.0):
    rng = np.random.default_rng(seed)
    frame_index = np.sort(rng.integers(0, n_frames, n)).astype(np.int64)
    labels = LABELS[rng.integers(0, len(LABELS), n)]
    positions = rng.uniform(-spread, spread, (n, 2))
    scores = rng.uniform(0.05, 1.0, n)
    return frame_index, labels, positions, scores, n_frames


def brute_force(columns, object_filter):
    """The flat scan the index must reproduce bit-for-bit."""
    frame_index, labels, positions, scores, n_frames = columns
    mask = scores >= object_filter.confidence
    if object_filter.label is not None:
        mask = mask & (labels == object_filter.label)
    if object_filter.spatial is not None:
        mask = mask & object_filter.spatial.mask_positions(positions)
    return np.bincount(frame_index[mask], minlength=n_frames).astype(float)


FILTERS = [
    ObjectFilter("Car", RegionPredicate(-20, -20, 20, 20)),
    ObjectFilter(None, RegionPredicate(10, -60, 70, 5)),
    ObjectFilter("Pedestrian", SectorPredicate(-45, 45)),
    ObjectFilter("Car", SectorPredicate(150, 390)),  # wraparound, span > 180
    ObjectFilter("Cyclist", TilePredicate("0")),
    ObjectFilter(
        "Car",
        AllOf((RegionPredicate(-50, -50, 50, 50), SectorPredicate(0, 180))),
    ),
    ObjectFilter("Car", RegionPredicate(-20, -20, 20, 20), confidence=0.8),
    ObjectFilter(None, RegionPredicate(-1000, -1000, 1000, 1000)),
    ObjectFilter("Car", RegionPredicate(500, 500, 600, 600)),  # empty
]


def build(columns, **kwargs):
    return SpatialTileIndex(*columns, **kwargs)


class TestBitIdentity:
    @pytest.mark.parametrize("object_filter", FILTERS, ids=lambda f: f.describe())
    def test_matches_brute_force(self, object_filter):
        columns = make_columns()
        index = build(columns, leaf_capacity=32, max_depth=6)
        assert np.array_equal(
            index.count_series(object_filter), brute_force(columns, object_filter)
        )

    @pytest.mark.parametrize("leaf_capacity,max_depth", [(1, 12), (8, 3), (10_000, 4)])
    def test_matches_across_tree_shapes(self, leaf_capacity, max_depth):
        columns = make_columns(n=300)
        index = build(columns, leaf_capacity=leaf_capacity, max_depth=max_depth)
        for object_filter in FILTERS:
            assert np.array_equal(
                index.count_series(object_filter),
                brute_force(columns, object_filter),
            )

    def test_empty_index(self):
        columns = make_columns(n=0, n_frames=5)
        index = build(columns)
        counts = index.count_series(FILTERS[0])
        assert counts.shape == (5,) and not counts.any()

    def test_requires_spatial_filter(self):
        index = build(make_columns(n=50))
        with pytest.raises(ValueError, match="spatial"):
            index.count_series(ObjectFilter("Car"))


class TestStructure:
    def test_leaves_partition_rows(self):
        columns = make_columns()
        index = build(columns, leaf_capacity=16, max_depth=8)
        spans = [
            (node.start, node.end) for node in index._nodes if node.is_leaf
        ]
        covered = np.concatenate(
            [index._order[start:end] for start, end in spans]
        )
        assert sorted(covered.tolist()) == list(range(len(columns[0])))
        assert index.n_leaves == len(spans)

    def test_leaf_extents_are_tight(self):
        columns = make_columns()
        positions = columns[2]
        index = build(columns, leaf_capacity=16)
        for node in index._nodes:
            if not node.is_leaf or node.n_rows == 0:
                continue
            rows = index._order[node.start : node.end]
            assert node.extent is not None
            assert node.extent.x_min == positions[rows, 0].min()
            assert node.extent.y_max == positions[rows, 1].max()

    def test_validation(self):
        columns = make_columns(n=10)
        with pytest.raises(ValueError, match="leaf_capacity"):
            build(columns, leaf_capacity=0)
        with pytest.raises(ValueError, match="max_depth"):
            build(columns, max_depth=0)


class TestPruningStats:
    def test_disjoint_region_prunes_everything(self):
        index = build(make_columns(), leaf_capacity=16)
        index.count_series(ObjectFilter("Car", RegionPredicate(900, 900, 950, 950)))
        snapshot = index.stats.snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["tile_prune_rate"] == 1.0
        assert snapshot["rows_scanned"] == 0

    def test_world_region_answers_from_summaries(self):
        columns = make_columns()
        index = build(columns, leaf_capacity=16)
        world = ObjectFilter("Car", RegionPredicate(-1e6, -1e6, 1e6, 1e6))
        assert np.array_equal(
            index.count_series(world), brute_force(columns, world)
        )
        snapshot = index.stats.snapshot()
        assert snapshot["rows_scanned"] == 0
        assert snapshot["rows_summarized"] == len(columns[0])
        assert snapshot["row_scan_fraction"] == 0.0

    def test_non_summary_confidence_stays_exact_without_geometry(self):
        columns = make_columns()
        index = build(columns, leaf_capacity=16)
        world = ObjectFilter(
            "Car", RegionPredicate(-1e6, -1e6, 1e6, 1e6), confidence=0.75
        )
        assert np.array_equal(
            index.count_series(world), brute_force(columns, world)
        )
        snapshot = index.stats.snapshot()
        # Contained tiles re-mask by label/score only; no position scans.
        assert snapshot["rows_scanned"] == 0
        assert snapshot["rows_summarized"] == 0

    def test_reset(self):
        index = build(make_columns())
        index.count_series(FILTERS[0])
        index.reset_stats()
        assert index.stats.queries == 0

    def test_snapshot_includes_structure(self):
        index = build(make_columns())
        snapshot = index.stats_snapshot()
        assert snapshot["n_rows"] == index.n_rows
        assert snapshot["n_leaves"] == index.n_leaves
        assert snapshot["version"] == 0


def extend_columns(columns, extra_n, extra_frames, seed=99):
    """Append rows for new frames past the current maximum (extend shape)."""
    frame_index, labels, positions, scores, n_frames = columns
    rng = np.random.default_rng(seed)
    new_frames = np.sort(
        rng.integers(n_frames, n_frames + extra_frames, extra_n)
    ).astype(np.int64)
    return (
        np.concatenate([frame_index, new_frames]),
        np.concatenate([labels, LABELS[rng.integers(0, len(LABELS), extra_n)]]),
        np.vstack([positions, rng.uniform(-150.0, 150.0, (extra_n, 2))]),
        np.concatenate([scores, rng.uniform(0.05, 1.0, extra_n)]),
        n_frames + extra_frames,
    )


class TestIncrementalUpdate:
    def test_updated_matches_brute_force(self):
        columns = make_columns()
        index = build(columns, leaf_capacity=32)
        grown = extend_columns(columns, extra_n=250, extra_frames=15)
        successor = index.updated(*grown)
        assert successor.version == 1
        for object_filter in FILTERS:
            assert np.array_equal(
                successor.count_series(object_filter),
                brute_force(grown, object_filter),
            )

    def test_updated_is_a_fresh_build_one_version_later(self):
        columns = make_columns()
        index = build(columns, leaf_capacity=32, max_depth=6, summary_confidence=0.7)
        grown = extend_columns(columns, extra_n=100, extra_frames=5)
        successor = index.updated(*grown)
        fresh = build(grown, leaf_capacity=32, max_depth=6, summary_confidence=0.7)
        assert successor._nodes == fresh._nodes
        assert np.array_equal(successor._order, fresh._order)
        assert successor._summaries.keys() == fresh._summaries.keys()
        assert (successor.version, fresh.version) == (1, 0)

    def test_chained_updates(self):
        columns = make_columns(n=200)
        index = build(columns, leaf_capacity=32)
        for step in range(3):
            columns = extend_columns(
                columns, extra_n=60, extra_frames=4, seed=50 + step
            )
            index = index.updated(*columns)
            assert index.version == step + 1
        for object_filter in FILTERS:
            assert np.array_equal(
                index.count_series(object_filter),
                brute_force(columns, object_filter),
            )


class TestTileGrid:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            tile_path_bounds("")

    def test_quadrant_digits(self):
        south_west = tile_path_bounds("0")
        north_east = tile_path_bounds("3")
        assert south_west.x_max == CANONICAL_ROOT.center[0]
        assert south_west.y_max == CANONICAL_ROOT.center[1]
        assert north_east.x_min == CANONICAL_ROOT.center[0]
        assert north_east.y_min == CANONICAL_ROOT.center[1]

    def test_leading_zeros_distinct(self):
        assert tile_path_bounds("00") != tile_path_bounds("0")
        assert tile_path_bounds("003") != tile_path_bounds("03")

    def test_validate_rejects_bad_paths(self):
        with pytest.raises(ValueError):
            validate_tile_path("0a1")
        with pytest.raises(ValueError):
            validate_tile_path("4")
        with pytest.raises(ValueError):
            validate_tile_path("0" * (MAX_TILE_DEPTH + 1))

    def test_bounds_contains_point(self):
        bounds = TileBounds(0.0, 0.0, 10.0, 10.0)
        assert bounds.contains_point(0.0, 10.0)  # closed box
        assert not bounds.contains_point(10.1, 5.0)


# ----------------------------------------------------------------------
# First-use build: a MASTIndex builds its tiles when a query needs them
# ----------------------------------------------------------------------
REGION_TEXT = "SELECT FRAMES WHERE COUNT(Car) >= 1 WITHIN REGION (-30, -30, 30, 30)"
DISTANCE_TEXTS = [
    "SELECT FRAMES WHERE COUNT(Car DIST <= 15) >= 2",
    "SELECT AVG OF COUNT(Pedestrian DIST <= 30)",
    "SELECT MED OF COUNT(Car)",
]
REGION_FILTER = ObjectFilter("Car", RegionPredicate(-30, -30, 30, 30))


@pytest.fixture()
def tile_builds(monkeypatch):
    """Every ``SpatialTileIndex`` constructed during the test, in order."""
    built = []
    real = SpatialTileIndex.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SpatialTileIndex, "__init__", counting)
    return built


@pytest.fixture(scope="module")
def drive():
    from repro.simulation import semantickitti_like

    return semantickitti_like(0, n_frames=150, with_points=False)


def fitted(drive, detector, n_frames=120, **overrides):
    from repro.core import MASTConfig, MASTPipeline

    config = MASTConfig(seed=3, **overrides)
    return MASTPipeline(config).fit(drive.head(n_frames, name=drive.name), detector)


class TestFirstUseBuild:
    def test_ingest_and_distance_queries_build_no_tiles(
        self, drive, detector, tile_builds
    ):
        from repro.core import MASTConfig
        from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog

        catalog = SequenceCatalog()
        catalog.register_sequence(drive.head(120, name=drive.name))
        with CorpusPipeline(catalog, MASTConfig(seed=3)) as corpus:
            corpus.fit(detector)
            with CorpusQueryService(corpus) as service:
                service.execute_batch(DISTANCE_TEXTS)
                service.extend(drive.name, list(drive[120:135]))
                service.execute_batch(DISTANCE_TEXTS)
                service.replan(detector)
                service.execute_batch(DISTANCE_TEXTS)
                shard = corpus.shard(drive.name)
                # Asking about the tiles never builds them either.
                assert shard.index.spatial_stats() is None
                assert "spatial   : not built" in shard.explain(REGION_TEXT)
                assert tile_builds == []

                service.execute(REGION_TEXT)
                assert tile_builds == [shard.index.spatial_index]
                assert shard.index.spatial_stats()["queries"] == 1
                assert "leaf tiles" in shard.explain(REGION_TEXT)

    @pytest.mark.parametrize(
        "path", ["service.execute", "service.execute_batch", "engine", "pipeline"]
    )
    def test_one_routing_rule_on_every_path(self, drive, detector, tile_builds, path):
        """A distance cut scans flat wherever it is asked; a region from
        frame 0 builds the tiles, once."""
        from repro.query import QueryEngine
        from repro.serving import QueryService

        pipeline = fitted(drive, detector)
        service = QueryService(pipeline)
        ask = {
            "service.execute": service.execute,
            "service.execute_batch": lambda text: service.execute_batch([text]),
            "engine": QueryEngine(pipeline.index).execute,
            "pipeline": pipeline.query,
        }[path]
        for text in DISTANCE_TEXTS:
            ask(text)
        assert pipeline.index.spatial_stats() is None
        assert tile_builds == []

        ask(REGION_TEXT)
        ask(REGION_TEXT.replace("COUNT(Car) >= 1", "COUNT(Car) >= 2"))
        assert tile_builds == [pipeline.index.spatial_index]
        assert pipeline.index.spatial_stats()["queries"] >= 1

    def test_racing_first_region_queries_build_one_index(
        self, drive, detector, tile_builds, flat_scan, monkeypatch
    ):
        import sys
        import threading
        import time

        index = fitted(drive, detector).index
        with flat_scan():
            want = index.count_series(REGION_FILTER)

        # Hold the winner inside the build until the loser has arrived.
        real = SpatialTileIndex._build
        monkeypatch.setattr(
            SpatialTileIndex, "_build", lambda self: (time.sleep(0.2), real(self))[1]
        )
        n_clients = 4  # more than the box has cores
        barrier = threading.Barrier(n_clients)
        answers = []

        def ask():
            barrier.wait(timeout=10)
            answers.append(index.count_series_many([REGION_FILTER])[REGION_FILTER])

        threads = [threading.Thread(target=ask) for _ in range(n_clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert tile_builds == [index.spatial_index]
        assert len(answers) == n_clients
        for answer in answers:
            assert np.array_equal(answer, want)

    def test_materialised_tiles_are_maintained_through_extend(
        self, drive, detector, tile_builds, flat_scan
    ):
        eager = fitted(drive, detector)
        lazy = fitted(drive, detector)

        eager.query(REGION_TEXT)  # tiles exist before the extend
        before = eager.index.spatial_index
        assert tile_builds == [before] and before.version == 0
        for pipeline in (eager, lazy):
            pipeline.extend(list(drive[120:]))

        # The built tiles advanced through ``updated`` (one successor,
        # one version later); the untouched pipeline still has none.
        after = eager.index.spatial_index
        assert after is not before and after.version == 1
        assert tile_builds == [before, after]
        assert lazy.index.spatial_index is None

        with flat_scan():
            want = lazy.index.count_series(REGION_FILTER)
        assert lazy.index.spatial_index is None
        assert np.array_equal(eager.index.count_series(REGION_FILTER), want)
        assert np.array_equal(lazy.index.count_series(REGION_FILTER), want)
        assert lazy.index.spatial_index.version == 0


#: Region-shaped filters of every predicate kind the tiles answer.
REGION_FILTERS = [
    REGION_FILTER,
    ObjectFilter(None, SectorPredicate(-45, 45)),
    ObjectFilter("Pedestrian", TilePredicate("0")),
    ObjectFilter("Car", RegionPredicate(-30, -30, 30, 30), confidence=0.8),
]


def assert_tiles_carried(index, before, tile_builds, flat_scan, ask):
    """The successor of a tiled index holds tiles one version later, and
    the region queries asked of it next build none and equal a flat scan."""
    after = index.spatial_index
    assert after is not None and after is not before
    assert after.version == before.version + 1
    assert tile_builds[-1] is after
    built = len(tile_builds)
    with flat_scan():
        want = {f: index.count_series(f) for f in REGION_FILTERS}
    ask(REGION_TEXT)
    for object_filter in REGION_FILTERS:
        assert np.array_equal(index.count_series(object_filter), want[object_filter])
    assert len(tile_builds) == built
    assert index.spatial_index is after
    assert after.stats.queries >= len(REGION_FILTERS)


class TestCarryRule:
    """The successor of a tiled index is tiled, on every rebuild."""

    @pytest.mark.parametrize("rebuild", ["extend", "re-plan", "re-fit"])
    def test_pipeline_rebuilds(self, drive, detector, tile_builds, flat_scan, rebuild):
        from repro.core import HierarchicalMultiAgentSampler, MASTConfig

        pipeline = fitted(drive, detector)
        pipeline.query(REGION_TEXT)
        before = pipeline.index.spatial_index
        if rebuild == "extend":
            pipeline.extend(list(drive[120:135]))
        elif rebuild == "re-plan":
            sampling = HierarchicalMultiAgentSampler(MASTConfig(seed=4)).sample(
                pipeline.sequence, detector, engine=pipeline.engine
            )
            pipeline.fit_from_sampling(pipeline.sequence, detector, sampling)
        else:
            pipeline.fit(drive.head(130, name=drive.name), detector)
        assert_tiles_carried(
            pipeline.index, before, tile_builds, flat_scan, pipeline.query
        )

    def test_corpus_replan(self, drive, detector, tile_builds, flat_scan):
        from repro.core import MASTConfig
        from repro.corpus import CorpusPipeline, CorpusQueryService, SequenceCatalog

        catalog = SequenceCatalog()
        catalog.register_sequence(drive.head(120, name=drive.name))
        with CorpusPipeline(catalog, MASTConfig(seed=3)) as corpus:
            corpus.fit(detector)
            with CorpusQueryService(corpus) as service:
                service.execute(REGION_TEXT)
                before = corpus.shard(drive.name).index.spatial_index
                service.replan(detector)
                assert_tiles_carried(
                    corpus.shard(drive.name).index,
                    before,
                    tile_builds,
                    flat_scan,
                    service.execute,
                )


#: Selectivity ladder, ``(cx, cy, half)`` as fractions of the city's 300 m
#: sensor range.  ``corner`` sits off the ego, where actors thin out.
CITY_REGIONS = {
    "corner": (0.6, 0.6, 0.25),
    "block": (0.0, 0.0, 0.05),
    "district": (0.0, 0.0, 0.4),
    "world": (0.0, 0.0, 1.0),
}


@pytest.mark.parametrize(
    "n_frames, min_rows, max_scan_fraction",
    [
        pytest.param(160, 130_000, 0.03, id="city-mid"),
        pytest.param(1400, 800_000, 0.02, id="city-large", marks=pytest.mark.stress),
    ],
)
def test_city_scale_tiled_equals_flat(n_frames, min_rows, max_scan_fraction, flat_scan):
    """Tiled ≡ flat where the tiles earn their keep — 10^5-10^6 indexed
    rows — and what they save there, as work rather than wall-clock: a
    corner query scans a few percent of the rows a flat scan touches."""
    from repro.core import MASTConfig, MASTPipeline
    from repro.models import pv_rcnn
    from repro.simulation import city_like

    sequence = city_like(0, n_frames=n_frames, with_points=False)
    model = pv_rcnn(seed=5, sensor_range=300.0)
    with MASTPipeline(MASTConfig(seed=1)) as tiled, MASTPipeline(
        MASTConfig(seed=1)
    ) as flat:
        tiled.fit(sequence, model)
        flat.fit_from_sampling(sequence, model, tiled.sampling_result)
        assert tiled.index.n_indexed_objects >= min_rows

        for name, (cx, cy, half) in CITY_REGIONS.items():
            box = [300.0 * edge for edge in (cx - half, cy - half, cx + half, cy + half)]
            car_filter = ObjectFilter("Car", RegionPredicate(*box))
            with flat_scan():
                want = flat.index.count_series(car_filter)
            assert np.array_equal(tiled.index.count_series(car_filter), want), name
            if name == "corner":  # the first rung: the counters are its alone
                corner = tiled.index.spatial_stats()
            region = "REGION {:g} {:g} {:g} {:g}".format(*box)
            for text in (
                f"SELECT MED OF COUNT(* {region})",
                f"SELECT AVG OF COUNT(Car {region})",
            ):
                with flat_scan():
                    want = flat.query(text).value
                assert tiled.query(text).value == want, text
        assert flat.index.spatial_index is None

    assert corner["row_scan_fraction"] <= max_scan_fraction
    assert corner["tile_prune_rate"] >= 0.95
