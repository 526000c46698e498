"""Property-based tests for ST-PC analysis and the Eq.-1 reward."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import analyze_pair, st_reward
from repro.data import ObjectArray

LABELS = ("Car", "Pedestrian", "Cyclist")


@st.composite
def scenes(draw, min_objects=0, max_objects=8):
    n = draw(st.integers(min_value=min_objects, max_value=max_objects))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    labels = rng.choice(LABELS, n) if n else np.empty(0, dtype="<U16")
    return ObjectArray(
        labels=np.asarray(labels, dtype="<U16"),
        centers=rng.uniform(-60, 60, (n, 3)),
        sizes=rng.uniform(0.5, 5.0, (n, 3)),
        yaws=rng.uniform(-np.pi, np.pi, n),
        scores=rng.uniform(0.3, 1.0, n),
    )


@given(scenes(), scenes(), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_tracking_decomposition_is_a_partition(start, end, duration):
    estimate = analyze_pair(start, end, 0.0, duration)
    matched_start = {i for i, _ in estimate.matched_pairs}
    matched_end = {j for _, j in estimate.matched_pairs}
    assert matched_start | set(estimate.disappearing) == set(range(len(start)))
    assert matched_end | set(estimate.appearing) == set(range(len(end)))
    assert not (matched_start & set(estimate.disappearing))
    assert not (matched_end & set(estimate.appearing))


@given(scenes(), scenes(), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_matched_pairs_share_labels(start, end, duration):
    estimate = analyze_pair(start, end, 0.0, duration)
    for i, j in estimate.matched_pairs:
        assert start.labels[i] == end.labels[j]


@given(scenes(), scenes(), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_prediction_size_bounded(start, end, duration):
    """Predicted sets never exceed |B_t1| + |B_t2| objects."""
    estimate = analyze_pair(start, end, 0.0, duration)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        predicted = estimate.predict(frac * duration)
        assert len(predicted) <= len(start) + len(end)
        assert np.all(predicted.scores >= 0.0)
        assert np.all(predicted.scores <= 1.0)


@given(scenes(min_objects=1), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_static_scene_predicts_itself(scene, duration):
    """When nothing moves between frames, prediction is exact."""
    estimate = analyze_pair(scene, scene, 0.0, duration)
    predicted = estimate.predict(duration / 2)
    assert len(predicted) == len(scene)
    assert np.allclose(np.sort(predicted.centers, axis=0),
                       np.sort(scene.centers, axis=0))


@given(scenes(), scenes())
@settings(max_examples=100, deadline=None)
def test_reward_non_negative_and_zero_iff_aligned(estimated, actual):
    reward = st_reward(estimated, actual, d_max=75.0, c_var=0.5)
    assert reward >= 0.0


@given(scenes(min_objects=1))
@settings(max_examples=100, deadline=None)
def test_reward_zero_for_identical_scenes(scene):
    assert st_reward(scene, scene, d_max=75.0, c_var=0.5) < 1e-9


@given(scenes(), scenes(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_reward_symmetric_in_cardinality_term(estimated, actual, c_var):
    """With c_var = 1 the reward counts unmatched boxes symmetrically."""
    forward = st_reward(estimated, actual, d_max=75.0, c_var=1.0)
    backward = st_reward(actual, estimated, d_max=75.0, c_var=1.0)
    assert abs(forward - backward) < 1e-9


# ----------------------------------------------------------------------
# match_by_label: the one-pass label grouping against the executable spec
# ----------------------------------------------------------------------
def _match_by_label_spec(objects_a, objects_b, *, max_distance=None):
    """The pre-grouping ``match_by_label``: ``np.unique`` label sets and a
    ``labels == label`` scan per label per side.  Kept as the reference."""
    from repro.geometry.matching import match_pairs

    pairs = []
    free_a = np.ones(len(objects_a), dtype=bool)
    free_b = np.ones(len(objects_b), dtype=bool)
    for label in sorted(objects_a.label_set() & objects_b.label_set()):
        idx_a = np.nonzero(objects_a.labels == label)[0]
        idx_b = np.nonzero(objects_b.labels == label)[0]
        diff = (
            objects_a.centers[idx_a][:, None, :] - objects_b.centers[idx_b][None, :, :]
        )
        cost = np.linalg.norm(diff, axis=2)
        local_pairs = match_pairs(cost, max_distance)
        if not local_pairs:
            continue
        local = np.array(local_pairs)
        global_a = idx_a[local[:, 0]]
        global_b = idx_b[local[:, 1]]
        free_a[global_a] = False
        free_b[global_b] = False
        pairs.extend(zip(global_a.tolist(), global_b.tolist()))
    return (
        sorted(pairs),
        np.flatnonzero(free_a).tolist(),
        np.flatnonzero(free_b).tolist(),
    )


@st.composite
def labelled_scenes(draw, pool, *, min_objects=0, max_objects=12, extent=60.0):
    """A scene whose labels are drawn from a caller-chosen ``pool``."""
    n = draw(st.integers(min_value=min_objects, max_value=max_objects))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    labels = rng.choice(pool, n) if n else np.empty(0, dtype="<U16")
    return ObjectArray(
        labels=np.asarray(labels, dtype="<U16"),
        centers=rng.uniform(-extent, extent, (n, 3)),
        sizes=rng.uniform(0.5, 5.0, (n, 3)),
        yaws=rng.uniform(-np.pi, np.pi, n),
        scores=rng.uniform(0.3, 1.0, n),
    )


#: Label pools per side: overlapping mixes, a single label, labels one
#: side never sees, and disjoint sides (nothing to match at all).
LABEL_POOLS = st.sampled_from(
    [
        (LABELS, LABELS),
        (("Car",), ("Car",)),
        (("Car", "Truck"), ("Car", "Pedestrian")),
        (("Truck", "Bus"), LABELS),
        (("Car",), ("Pedestrian",)),
    ]
)
GATES = st.one_of(st.none(), st.floats(min_value=0.5, max_value=40.0))


@given(st.data(), LABEL_POOLS, GATES)
@settings(max_examples=200, deadline=None)
def test_match_by_label_equals_the_unique_and_scan_spec(data, pools, gate):
    from repro.core import match_by_label

    objects_a = data.draw(labelled_scenes(pools[0]))
    objects_b = data.draw(labelled_scenes(pools[1]))
    assert match_by_label(
        objects_a, objects_b, max_distance=gate
    ) == _match_by_label_spec(objects_a, objects_b, max_distance=gate)


@given(st.data(), GATES)
@settings(max_examples=5, deadline=None)
def test_match_by_label_equals_the_spec_at_city_scale(data, gate):
    from repro.core import match_by_label

    city = {"min_objects": 700, "max_objects": 760, "extent": 300.0}
    objects_a = data.draw(labelled_scenes(LABELS, **city))
    objects_b = data.draw(labelled_scenes(LABELS + ("Truck",), **city))
    assert match_by_label(
        objects_a, objects_b, max_distance=gate
    ) == _match_by_label_spec(objects_a, objects_b, max_distance=gate)
