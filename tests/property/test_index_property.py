"""Property-based tests for MASTIndex consistency invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    HierarchicalMultiAgentSampler,
    LinearCountProvider,
    MASTConfig,
    MASTIndex,
)
from repro.data import FrameSequence, ObjectArray, PointCloudFrame
from repro.geometry import Pose2D
from repro.models import DetectionModel, FrameDetections, GroundTruthDetector
from repro.query import ObjectFilter, SpatialPredicate
from repro.query.predicates import DEFAULT_CONFIDENCE
from repro.query.spatial import AllOf, RegionPredicate, SectorPredicate
from repro.simulation import ScriptedScenario


@st.composite
def indexed_runs(draw):
    seed = draw(st.integers(0, 5_000))
    rng = np.random.default_rng(seed)
    duration = draw(st.sampled_from([4.0, 8.0]))
    scenario = ScriptedScenario(fps=10.0, duration=duration)
    for _ in range(draw(st.integers(1, 6))):
        start = rng.uniform(-50, 50, 2)
        velocity = rng.uniform(-10, 10, 2)
        scenario.add_actor(
            "Car",
            [(0.0, start[0], start[1]),
             (duration, start[0] + velocity[0] * duration,
              start[1] + velocity[1] * duration)],
        )
    config = MASTConfig(
        seed=seed % 101,
        budget_fraction=draw(st.sampled_from([0.15, 0.3])),
    )
    sampler = HierarchicalMultiAgentSampler(config)
    result = sampler.sample(scenario.build(), GroundTruthDetector())
    return result, config


FILTERS = [
    ObjectFilter(label="Car", confidence=0.0),
    ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 25.0), confidence=0.0),
    ObjectFilter(label="Car", spatial=SpatialPredicate(">=", 25.0), confidence=0.0),
]


@given(indexed_runs())
@settings(max_examples=25, deadline=None)
def test_sampled_frames_are_exact(run):
    result, config = run
    index = MASTIndex.build(result, config)
    for object_filter in FILTERS:
        counts = index.count_series(object_filter)
        for frame_id in result.sampled_ids:
            expected = object_filter.count(result.detections[int(frame_id)])
            assert counts[int(frame_id)] == expected


@given(indexed_runs())
@settings(max_examples=25, deadline=None)
def test_counts_non_negative_and_bounded(run):
    result, config = run
    index = MASTIndex.build(result, config)
    total = index.count_series(ObjectFilter(label=None, confidence=0.0))
    assert np.all(total >= 0)
    # A frame's predicted objects never exceed the union of its two
    # bounding sampled frames' detections.
    sampled = result.sampled_ids
    for start, end in zip(sampled[:-1], sampled[1:]):
        cap = len(result.detections[int(start)]) + len(result.detections[int(end)])
        assert np.all(total[int(start) + 1 : int(end)] <= cap)


@given(indexed_runs())
@settings(max_examples=25, deadline=None)
def test_objects_at_agrees_with_flat_columns(run):
    result, config = run
    index = MASTIndex.build(result, config)
    wildcard = ObjectFilter(label=None, confidence=0.0)
    counts = index.count_series(wildcard)
    probe = np.linspace(0, index.n_frames - 1, 7).astype(int)
    for frame_id in probe:
        assert len(index.objects_at(int(frame_id))) == counts[int(frame_id)]


@given(indexed_runs())
@settings(max_examples=25, deadline=None)
def test_linear_provider_agrees_on_sampled_frames(run):
    result, _config = run
    provider = LinearCountProvider(result)
    for object_filter in FILTERS[:2]:
        counts = provider.count_series(object_filter)
        for frame_id in result.sampled_ids:
            expected = object_filter.count(result.detections[int(frame_id)])
            assert counts[int(frame_id)] == expected


@given(indexed_runs())
@settings(max_examples=20, deadline=None)
def test_constant_velocity_world_is_predicted_exactly(run):
    """With exact detections and constant-velocity actors, ST prediction
    reproduces the true per-frame total counts away from appearance /
    disappearance boundaries."""
    result, config = run
    index = MASTIndex.build(result, config)
    wildcard = ObjectFilter(label=None, confidence=0.6)
    counts = index.count_series(wildcard)
    # Compare against ground truth where object membership is stable
    # within the sampled gap (endpoints have equal counts).
    sampled = result.sampled_ids
    for start, end in zip(sampled[:-1], sampled[1:]):
        n_start = len(result.detections[int(start)])
        n_end = len(result.detections[int(end)])
        if n_start == n_end:
            interior = counts[int(start) + 1 : int(end)]
            if len(interior):
                # Matched tracking of equal-size sets keeps counts equal.
                assert np.all(interior == n_start)


@st.composite
def scattered_samplings(draw):
    """A hand-made sampling: any non-empty sampled-id set, uneven timestamps."""
    from repro.core.sampler import SamplingResult
    from repro.data.annotations import ObjectArray

    n_frames = draw(st.integers(2, 40))
    sampled_ids = sorted(
        draw(st.sets(st.integers(0, n_frames - 1), min_size=1, max_size=n_frames))
    )
    rng = np.random.default_rng(draw(st.integers(0, 5_000)))
    detections = {}
    for frame_id in sampled_ids:
        n_objects = int(rng.integers(0, 6))
        detections[frame_id] = ObjectArray(
            labels=np.full(n_objects, "Car", dtype="<U16"),
            centers=np.column_stack(
                [rng.uniform(-40, 40, (n_objects, 2)), np.zeros(n_objects)]
            ),
            sizes=np.ones((n_objects, 3)),
            yaws=np.zeros(n_objects),
            scores=np.ones(n_objects),
        )
    return SamplingResult(
        sequence_name="scattered",
        n_frames=n_frames,
        timestamps=np.cumsum(rng.uniform(0.05, 0.2, n_frames)),
        budget=len(sampled_ids),
        sampled_ids=sampled_ids,
        detections=detections,
    )


@given(scattered_samplings(), st.data())
@settings(max_examples=60, deadline=None)
def test_linear_tail_is_the_series_slice(sampling, data):
    """A tail needs only the samples bracketing it: same bits as the slice."""
    provider = LinearCountProvider(sampling)
    start = data.draw(st.integers(0, sampling.n_frames - 1))
    for object_filter in FILTERS:
        assert np.array_equal(
            provider.count_series_many([object_filter], start=start)[object_filter],
            provider.count_series(object_filter)[start:],
        )


# ----------------------------------------------------------------------
# One kernel under every provider: count_series_many(filters, start=s)
# equals a per-frame ObjectFilter.count loop sliced at s.
# ----------------------------------------------------------------------
LABELS = ("Car", "Pedestrian", "Cyclist")


class RandomRows(DetectionModel):
    """Seeded random detections: any label, within 40 m, any score."""

    cost_per_frame = 0.01

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.name = f"random-rows-{seed}"

    def detect(self, frame):
        rng = np.random.default_rng([self.seed, frame.frame_id])
        n = int(rng.integers(0, 7))
        return FrameDetections(
            frame_id=frame.frame_id,
            timestamp=frame.timestamp,
            objects=ObjectArray(
                labels=np.array(LABELS)[rng.integers(0, len(LABELS), n)],
                centers=np.column_stack([rng.uniform(-40, 40, (n, 2)), np.zeros(n)]),
                sizes=np.ones((n, 3)),
                yaws=np.zeros(n),
                scores=rng.uniform(0.0, 1.0, n),
            ),
            model_name=self.name,
        )


SPATIALS = (
    None,
    SpatialPredicate("<=", 20.0),
    SpatialPredicate(">", 12.5),
    RegionPredicate(-15.0, -30.0, 25.0, 10.0),
    SectorPredicate(-60.0, 80.0),
    AllOf((RegionPredicate(-30.0, -30.0, 30.0, 30.0), SectorPredicate(90.0, 300.0))),
)
object_filters = st.builds(
    ObjectFilter,
    label=st.sampled_from((None, *LABELS)),
    spatial=st.sampled_from(SPATIALS),
    confidence=st.sampled_from((DEFAULT_CONFIDENCE, 0.0, 0.73)),
)


def _frames(n_frames: int) -> FrameSequence:
    return FrameSequence(
        [
            PointCloudFrame(
                frame_id=i,
                timestamp=0.1 * i,
                ego_pose=Pose2D(0.0, 0.0, 0.0),
                ground_truth=ObjectArray.empty(),
            )
            for i in range(n_frames)
        ],
        fps=10.0,
        name="random-rows",
    )


def _counts(object_filter, objects_by_frame, frames) -> np.ndarray:
    """The brute-force reference: one ``ObjectFilter.count`` per frame."""
    return np.array(
        [object_filter.count(objects_by_frame[int(frame)]) for frame in frames],
        dtype=float,
    )


def _index_objects(index: MASTIndex) -> dict[int, ObjectArray]:
    """Each frame's indexed rows (real or predicted) as an object set."""
    rows = index._rows
    objects = {}
    for frame in range(index.n_frames):
        keep = rows.frame_index == frame
        n = int(keep.sum())
        objects[frame] = ObjectArray(
            labels=rows.labels[keep],
            centers=np.column_stack([rows.positions[keep], np.zeros(n)]),
            sizes=np.ones((n, 3)),
            yaws=np.zeros(n),
            scores=rows.scores[keep],
        )
    return objects


@given(
    seed=st.integers(0, 5_000),
    n_frames=st.integers(2, 40),
    filters=st.lists(object_filters, min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_every_provider_counts_like_the_per_frame_loop(seed, n_frames, filters, data):
    from repro.baselines import OracleCountProvider, ProxyCountProvider
    from repro.core.sampler import SamplingResult

    start = data.draw(st.integers(0, n_frames), label="start")
    sampled_ids = sorted(
        data.draw(
            st.sets(st.integers(0, n_frames - 1), min_size=1, max_size=n_frames),
            label="sampled_ids",
        )
    )
    sequence = _frames(n_frames)
    model = RandomRows(seed)
    truth = {frame.frame_id: model.detect(frame).objects for frame in sequence}
    everything = range(n_frames)

    oracle = OracleCountProvider(sequence, model)
    got = oracle.count_series_many(filters, start=start)
    for object_filter in filters:
        want = _counts(object_filter, truth, everything)
        assert np.array_equal(got[object_filter], want[start:])

    proxy_model = RandomRows(seed + 1)
    proxy = ProxyCountProvider(
        sequence, model, proxy_model=proxy_model, oracle_fraction=0.3
    )
    proxied = {frame.frame_id: proxy_model.detect(frame).objects for frame in sequence}
    got = proxy.count_series_many(filters, start=start)
    for object_filter in filters:
        raw = _counts(object_filter, proxied, everything)
        slope, intercept = proxy.calibration_for(object_filter)
        want = np.maximum(slope * raw + intercept, 0.0)
        assert np.array_equal(got[object_filter], want[start:])

    sampling = SamplingResult(
        sequence_name=sequence.name,
        n_frames=n_frames,
        timestamps=sequence.timestamps,
        budget=len(sampled_ids),
        sampled_ids=sampled_ids,
        detections={frame: truth[frame] for frame in sampled_ids},
    )
    linear = LinearCountProvider(sampling)
    got = linear.count_series_many(filters, start=start)
    for object_filter in filters:
        measured = _counts(object_filter, truth, sampled_ids)
        want = np.interp(sequence.timestamps, sequence.timestamps[sampled_ids], measured)
        assert np.array_equal(got[object_filter], want[start:])

    index = MASTIndex.build(sampling, MASTConfig())
    indexed = _index_objects(index)
    got = index.count_series_many(filters, start=start)
    flat = index._rows.count_series(filters, n_frames, start=start)
    for object_filter in filters:
        want = _counts(object_filter, indexed, everything)
        assert np.array_equal(got[object_filter], want[start:])
        assert np.array_equal(flat[object_filter], want[start:])
