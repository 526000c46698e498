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
