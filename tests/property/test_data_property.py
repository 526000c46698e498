"""Property-based tests for ObjectArray and persistence round-trips."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ObjectArray, load_detections, save_detections

LABELS = ("Car", "Pedestrian", "Cyclist", "Truck")


def concatenate(parts: list[ObjectArray]) -> ObjectArray:
    """The rows of ``parts`` in order (labels, boxes and scores only)."""
    columns = ("labels", "centers", "sizes", "yaws", "scores")
    return ObjectArray(*(np.concatenate([getattr(p, c) for p in parts]) for c in columns))


@st.composite
def object_arrays(draw, max_objects=12):
    n = draw(st.integers(min_value=0, max_value=max_objects))
    rng = np.random.default_rng(draw(st.integers(0, 100_000)))
    with_velocity = draw(st.booleans())
    with_ids = draw(st.booleans())
    labels = rng.choice(LABELS, n) if n else np.empty(0, dtype="<U16")
    return ObjectArray(
        labels=np.asarray(labels, dtype="<U16"),
        centers=rng.uniform(-80, 80, (n, 3)),
        sizes=rng.uniform(0.3, 9.0, (n, 3)),
        yaws=rng.uniform(-np.pi, np.pi, n),
        scores=rng.uniform(0.0, 1.0, n),
        velocities=rng.uniform(-20, 20, (n, 2)) if with_velocity else None,
        ids=rng.integers(0, 1000, n) if with_ids else None,
    )


@given(object_arrays())
@settings(max_examples=80, deadline=None)
def test_filter_then_concat_partition_roundtrip(objects):
    """Splitting by any mask and concatenating back preserves the rows."""
    mask = objects.scores >= 0.5
    kept = objects.filter(mask)
    dropped = objects.filter(~mask)
    merged = concatenate([kept, dropped])
    assert len(merged) == len(objects)
    assert sorted(merged.scores.tolist()) == sorted(objects.scores.tolist())
    assert merged.label_set() == objects.label_set()


@given(object_arrays())
@settings(max_examples=80, deadline=None)
def test_translation_roundtrip(objects):
    deltas = np.ones((len(objects), 2)) * 3.5
    back = objects.translated(deltas).translated(-deltas)
    assert np.allclose(back.centers, objects.centers)


@given(object_arrays())
@settings(max_examples=80, deadline=None)
def test_distances_match_boxes(objects):
    distances = objects.distances_to_origin()
    for i in range(len(objects)):
        assert distances[i] == objects.box(i).distance_to_origin()


@given(st.lists(object_arrays(max_objects=6), min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_detection_persistence_roundtrip(object_sets):
    import tempfile
    from pathlib import Path

    detections = {i * 3: objects for i, objects in enumerate(object_sets)}
    with tempfile.TemporaryDirectory() as tmp_dir:
        path = Path(tmp_dir) / "det.npz"
        _roundtrip(detections, path)


def _roundtrip(detections, path):
    save_detections(detections, path, model_name="prop")
    restored, model_name = load_detections(path)
    assert model_name == "prop"
    assert set(restored) == set(detections)
    for frame_id, objects in detections.items():
        back = restored[frame_id]
        assert len(back) == len(objects)
        assert np.allclose(back.centers, objects.centers)
        assert np.allclose(back.scores, objects.scores)
        assert np.array_equal(back.labels, objects.labels)
