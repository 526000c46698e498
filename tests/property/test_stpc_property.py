"""Property-based tests for ST-PC analysis and the Eq.-1 reward."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MotionEstimate, analyze_pair, match_by_label, st_reward
from repro.data import ObjectArray
from repro.geometry import match_pairs
from tests.kernel_specs import (
    object_columns,
    predict_flat_spec,
    predict_spec,
    same_columns,
)

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
    """The pre-grouping ``match_by_label``: ``np.unique`` label sets, a
    ``labels == label`` scan per label per side and ``np.linalg.norm``
    costs.  Kept as the reference."""
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
    objects_a = data.draw(labelled_scenes(pools[0]))
    objects_b = data.draw(labelled_scenes(pools[1]))
    assert match_by_label(
        objects_a, objects_b, max_distance=gate
    ) == _match_by_label_spec(objects_a, objects_b, max_distance=gate)


@given(st.data(), GATES)
@settings(max_examples=5, deadline=None)
def test_match_by_label_equals_the_spec_at_city_scale(data, gate):
    city = {"min_objects": 700, "max_objects": 760, "extent": 300.0}
    objects_a = data.draw(labelled_scenes(LABELS, **city))
    objects_b = data.draw(labelled_scenes(LABELS + ("Truck",), **city))
    assert match_by_label(
        objects_a, objects_b, max_distance=gate
    ) == _match_by_label_spec(objects_a, objects_b, max_distance=gate)


# ----------------------------------------------------------------------
# Tracking-shaped scenes: scene b is scene a jittered, plus births and
# deaths — the pairs ST-PC analysis sees.
# ----------------------------------------------------------------------
@st.composite
def tracked_pairs(draw, *, max_objects=14, extent=60.0):
    """``(scene a, scene b)``: b keeps a random subset of a's objects,
    each moved a little, in a shuffled order, plus newborns."""
    n = draw(st.integers(min_value=0, max_value=max_objects))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = LABELS[: draw(st.integers(1, len(LABELS)))]
    a = ObjectArray(
        labels=np.asarray(rng.choice(pool, n) if n else [], dtype="<U16"),
        centers=rng.uniform(-extent, extent, (n, 3)),
        sizes=rng.uniform(0.5, 5.0, (n, 3)),
        yaws=rng.uniform(-np.pi, np.pi, n),
        scores=rng.uniform(0.3, 1.0, n),
    )
    kept = a.filter(rng.random(n) >= draw(st.floats(0.0, 0.5)))
    jitter = draw(st.sampled_from([0.0, 0.05, 0.5, 3.0]))
    moved = kept.translated(rng.normal(0.0, jitter, (len(kept), 2)))
    births = int(rng.integers(0, 4))
    born = ObjectArray(
        labels=np.asarray(rng.choice(pool, births) if births else [], dtype="<U16"),
        centers=rng.uniform(-extent, extent, (births, 3)),
        sizes=rng.uniform(0.5, 5.0, (births, 3)),
        yaws=rng.uniform(-np.pi, np.pi, births),
        scores=rng.uniform(0.3, 1.0, births),
    )
    b = ObjectArray.concatenate([moved, born])
    return a, b.filter(rng.permutation(len(b)))


@given(tracked_pairs(), GATES)
@settings(max_examples=200, deadline=None)
def test_match_by_label_equals_the_spec_on_tracking_scenes(scenes, gate):
    a, b = scenes
    assert match_by_label(a, b, max_distance=gate) == _match_by_label_spec(
        a, b, max_distance=gate
    )
    assert match_by_label(b, a, max_distance=gate) == _match_by_label_spec(
        b, a, max_distance=gate
    )


# ----------------------------------------------------------------------
# MotionEstimate.predict / predict_flat against their per-part specs
# ----------------------------------------------------------------------
def _scene(rng, n, *, label_dtype="<U16", extras=False):
    return ObjectArray(
        labels=np.asarray(rng.choice(LABELS, n) if n else [], dtype=label_dtype),
        centers=rng.uniform(-60, 60, (n, 3)),
        sizes=rng.uniform(0.5, 5.0, (n, 3)),
        yaws=rng.uniform(-np.pi, np.pi, n),
        scores=rng.uniform(0.3, 1.0, n),
        velocities=rng.normal(0.0, 2.0, (n, 2)) if extras else None,
        ids=rng.integers(0, 1000, n) if extras else None,
    )


@st.composite
def estimates(draw):
    """Estimates with any of the three parts empty, label columns of two
    widths, optional velocity / id columns and signed-zero centres."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_start = draw(st.integers(0, 9))
    n_end = draw(st.integers(0, 9))
    n_matched = draw(st.integers(0, min(n_start, n_end)))
    n_gone = draw(st.integers(0, n_start - n_matched))
    n_new = draw(st.integers(0, n_end - n_matched))
    start = _scene(
        rng, n_start,
        label_dtype=draw(st.sampled_from(["<U10", "<U16"])),
        extras=draw(st.booleans()),
    )
    end = _scene(
        rng, n_end,
        label_dtype=draw(st.sampled_from(["<U10", "<U16"])),
        extras=draw(st.booleans()),
    )
    if n_start and draw(st.booleans()):
        start.centers[rng.random((n_start, 3)) < 0.3] = -0.0
    rows = rng.permutation(n_start)
    cols = rng.permutation(n_end)
    velocities = np.zeros((n_start, 2))
    velocities[rows[:n_matched]] = rng.normal(0.0, 3.0, (n_matched, 2))
    t_start = draw(st.floats(-5.0, 5.0))
    return MotionEstimate(
        objects_start=start,
        objects_end=end,
        t_start=t_start,
        t_end=t_start + draw(st.floats(0.05, 3.0)),
        matched=np.array([rows[:n_matched], cols[:n_matched]], dtype=np.int64),
        velocities=velocities,
        disappearing=tuple(sorted(rows[n_matched : n_matched + n_gone].tolist())),
        appearing=tuple(sorted(cols[n_matched : n_matched + n_new].tolist())),
    )


#: Where to predict, as a fraction of the estimate's span: inside, on the
#: endpoints, and outside ``[t1, t2]`` on both sides.
SPAN_FRACTIONS = st.floats(-1.5, 2.5, allow_nan=False)


@given(estimates(), st.lists(SPAN_FRACTIONS, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_predict_equals_the_per_part_spec(estimate, fractions):
    for frac in fractions + [0.0, 1.0]:
        t = estimate.t_start + frac * estimate.duration
        assert same_columns(
            object_columns(estimate.predict(t)), object_columns(predict_spec(estimate, t))
        )


@given(estimates(), st.lists(SPAN_FRACTIONS, max_size=6))
@settings(max_examples=300, deadline=None)
def test_predict_flat_equals_the_tile_and_repeat_spec(estimate, fractions):
    timestamps = np.array(
        [estimate.t_start + frac * estimate.duration for frac in fractions], dtype=float
    )
    assert same_columns(
        estimate.predict_flat(timestamps), predict_flat_spec(estimate, timestamps)
    )
