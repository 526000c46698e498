"""Property-based tests for ST-PC analysis and the Eq.-1 reward."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import analyze_pair, match_by_label, st_reward
from repro.core.stpc import analyze_pairs, predict_gaps
from repro.data import ObjectArray
from repro.geometry import hungarian, match_pairs
from repro.geometry.matching import WIDE_SCAN_MIN_COLUMNS

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
# The batched kernel against plain per-pair loops
# ----------------------------------------------------------------------
def reference_estimate(start, end, t_start, t_end, max_distance):
    """Alg. 1 for one pair as a plain loop: one Hungarian solve per label
    block, in the caller's orientation."""
    if not t_end > t_start:
        raise ValueError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    labels_a, labels_b = start.labels.tolist(), end.labels.tolist()
    pairs = []
    for label in sorted(set(labels_a) & set(labels_b)):
        ia = [i for i, other in enumerate(labels_a) if other == label]
        ib = [j for j, other in enumerate(labels_b) if other == label]
        diff = start.centers[ia][:, None, :] - end.centers[ib][None, :, :]
        cost = np.sqrt(np.add.reduce(diff * diff, axis=2))
        solved = hungarian(cost) if max_distance is None else match_pairs(cost, max_distance)
        pairs.extend((ia[i], ib[j]) for i, j in solved)
    pairs.sort()
    velocities = np.zeros((len(start), 2))
    for i, j in pairs:
        velocities[i] = (end.centers[j, :2] - start.centers[i, :2]) / (t_end - t_start)
    return (
        np.array(pairs, dtype=np.int64).reshape(-1, 2).T,
        velocities,
        tuple(i for i in range(len(start)) if i not in {i for i, _ in pairs}),
        tuple(j for j in range(len(end)) if j not in {j for _, j in pairs}),
    )


def reference_rows(estimate, timestamps):
    """Alg. 3 line 5 for one gap as a plain loop over time, part and box."""
    start, end = estimate.objects_start, estimate.objects_end
    parts = [
        (start, estimate.matched[0].tolist(), "matched"),
        (start, list(estimate.disappearing), "disappearing"),
        (end, list(estimate.appearing), "appearing"),
    ]
    sources = [source.labels.dtype for source, boxes, _ in parts if boxes and len(timestamps)]
    index, labels, positions, scores = [], [], [], []
    for k, t in enumerate(timestamps.tolist()):
        elapsed = t - estimate.t_start
        frac = min(max(elapsed / (estimate.t_end - estimate.t_start), 0.0), 1.0)
        for source, boxes, part in parts:
            for box in boxes:
                index.append(k)
                labels.append(source.labels[box])
                base = source.centers[box, :2]
                if part == "matched":
                    positions.append(estimate.velocities[box] * elapsed + base)
                    scores.append(source.scores[box])
                else:
                    positions.append(base.copy())
                    weight = 1.0 - frac if part == "disappearing" else frac
                    scores.append(source.scores[box] * weight)
    if not index:
        return (
            np.zeros(0, dtype=np.int64),
            np.empty(0, dtype="<U16"),
            np.zeros((0, 2)),
            np.zeros(0),
        )
    return (
        np.array(index, dtype=np.int64),
        np.array(labels, dtype=np.result_type(*sources)),
        np.array(positions).reshape(-1, 2),
        np.array(scores, dtype=float),
    )


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert got.tobytes() == want.tobytes(), what


#: Coordinates on a small grid with signed zeros: exact ties, colliding
#: row minima and zero costs everywhere.  (A Euclidean cost itself is
#: never ``-0.0``; signed zeros enter through the coordinates.)
GRID = np.array([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def object_sets(draw):
    """A chain of detection sets with the shapes the kernel branches on."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coordinates = draw(st.sampled_from(["continuous", "grid", "moved"]))
    sets = []
    for _ in range(draw(st.integers(1, 6))):
        wide = draw(st.integers(0, 9)) == 0
        if wide:
            n = int(rng.integers(WIDE_SCAN_MIN_COLUMNS, WIDE_SCAN_MIN_COLUMNS + 8))
        else:
            n = draw(st.sampled_from([0, 0, 1, 1, 2, 3, 4, 6, 9]))
        one_label = wide or draw(st.booleans())
        labels = np.array(["Car"] * n if one_label else rng.choice(LABELS, n).tolist())
        labels = labels.astype(draw(st.sampled_from(["<U16", "<U10"])))
        if coordinates == "grid":
            centers = rng.choice(GRID, (n, 3))
        elif coordinates == "moved" and sets and len(sets[-1]) >= n:
            moved = rng.permutation(len(sets[-1]))[:n]
            centers = sets[-1].centers[moved] + rng.normal(0, 0.5, (n, 3))
        else:
            centers = rng.uniform(-60, 60, (n, 3))
        if coordinates == "grid":
            scores = rng.choice([0.25, 0.5, 0.9, -0.0], n)
        else:
            scores = rng.uniform(0.3, 1.0, n)
        sets.append(
            ObjectArray(
                labels=labels,
                centers=centers,
                sizes=np.ones((n, 3)),
                yaws=np.zeros(n),
                scores=scores,
            )
        )
    return sets


@st.composite
def batches(draw):
    """``(pairs, max_distance, timestamps)``: consecutive sets of a chain
    (sharing objects, as an index build's gaps do) and unrelated ones."""
    sets = draw(object_sets())
    chained = draw(st.booleans()) and len(sets) > 1
    if chained:
        sides = list(zip(sets[:-1], sets[1:]))
    else:
        picks = st.tuples(st.sampled_from(sets), st.sampled_from(sets))
        sides = draw(st.lists(picks, min_size=1, max_size=5))
    pairs, timestamps = [], []
    t = 0.0
    for a, b in sides:
        duration = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
        pairs.append((a, b, t, t + duration))
        n_t = draw(st.integers(0, 4))
        timestamps.append(np.sort(t + duration * np.linspace(-0.25, 1.5, n_t)))
        if chained:
            t += duration
    max_distance = draw(st.sampled_from([None, None, None, 1.5, 30.0]))
    return pairs, max_distance, timestamps


@pytest.mark.wall_bound(60)
@given(batches())
@settings(max_examples=150, deadline=None)
def test_the_batch_equals_per_pair_loops(batch):
    """Every pair's estimate and every gap's rows, byte for byte."""
    pairs, max_distance, timestamps = batch
    estimates = analyze_pairs(pairs, max_distance=max_distance)
    assert len(estimates) == len(pairs)
    for (a, b, t_start, t_end), estimate in zip(pairs, estimates):
        matched, velocities, disappearing, appearing = reference_estimate(
            a, b, t_start, t_end, max_distance
        )
        assert estimate.objects_start is a and estimate.objects_end is b
        assert (estimate.t_start, estimate.t_end) == (t_start, t_end)
        assert_same_bytes(estimate.matched, matched, "matched")
        assert estimate.matched.flags.c_contiguous
        assert_same_bytes(estimate.velocities, velocities, "velocities")
        assert (estimate.disappearing, estimate.appearing) == (disappearing, appearing)
        one = match_by_label(a, b, max_distance=max_distance)
        assert one == (list(zip(*matched.tolist())), list(disappearing), list(appearing))

    ends, time_index, labels, positions, scores = predict_gaps(estimates, timestamps)
    wanted = [reference_rows(e, times) for e, times in zip(estimates, timestamps)]
    label_type = np.result_type(*[want[1].dtype for want in wanted if len(want[0])] or ["<U16"])
    assert labels.dtype == label_type
    lo, first_time = 0, 0
    for estimate, times, hi, want in zip(estimates, timestamps, ends, wanted):
        got = estimate.predict_flat(times)
        for name, got_column, want_column in zip(("index", "labels", "xy", "scores"), got, want):
            assert_same_bytes(got_column, want_column, name)
        assert_same_bytes(time_index[lo:hi] - first_time, want[0], "batch index")
        assert_same_bytes(labels[lo:hi], want[1].astype(label_type), "batch labels")
        assert_same_bytes(positions[lo:hi], want[2], "batch xy")
        assert_same_bytes(scores[lo:hi], want[3], "batch scores")
        lo, first_time = hi, first_time + len(times)
    assert lo == len(time_index) == len(labels) == len(positions) == len(scores)


@pytest.mark.wall_bound(60)
@given(batches(), st.data())
@settings(max_examples=60, deadline=None)
def test_the_batch_raises_what_the_loop_raises(batch, data):
    """A pair with ``t_end <= t_start``, or a non-finite center in a label
    block without a gate, fails the batch with the loop's ``ValueError``."""
    pairs, max_distance, _ = batch
    k = data.draw(st.integers(0, len(pairs) - 1))
    a, b, t_start, t_end = pairs[k]
    if data.draw(st.booleans()):
        pairs[k] = (a, b, t_start, t_start - data.draw(st.sampled_from([0.0, 1.0])))
    else:
        shared = sorted(set(a.labels.tolist()) & set(b.labels.tolist()))
        assume(shared)
        row = a.labels.tolist().index(shared[0])
        centers = a.centers.copy()
        centers[row, data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([np.nan, np.inf]))
        bad = ObjectArray(a.labels, centers, a.sizes, a.yaws, a.scores)
        pairs = [(bad if x is a else x, bad if y is a else y, t0, t1) for x, y, t0, t1 in pairs]
        assume(max_distance is None)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as want:
        for pair in pairs:
            reference_estimate(*pair, max_distance)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as got:
        analyze_pairs(pairs, max_distance=max_distance)
    assert str(got.value) == str(want.value)
