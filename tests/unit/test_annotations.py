"""Unit tests for the array-backed ObjectArray container."""

import numpy as np
import pytest

from repro.data import ObjectArray
from repro.geometry import BoundingBox3D


def make_objects(n=3, with_velocity=False, with_ids=False):
    return ObjectArray(
        labels=np.array([f"Car" if i % 2 == 0 else "Pedestrian" for i in range(n)]),
        centers=np.arange(n * 3, dtype=float).reshape(n, 3),
        sizes=np.ones((n, 3)),
        yaws=np.zeros(n),
        scores=np.linspace(0.5, 1.0, n),
        velocities=np.ones((n, 2)) if with_velocity else None,
        ids=np.arange(n) if with_ids else None,
    )


class TestConstruction:
    def test_empty(self):
        objects = ObjectArray.empty()
        assert len(objects) == 0
        assert objects.label_set() == set()

    def test_length(self):
        assert len(make_objects(5)) == 5

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError, match="rows"):
            ObjectArray(
                labels=np.array(["Car"]),
                centers=np.zeros((2, 3)),
                sizes=np.ones((1, 3)),
                yaws=np.zeros(1),
                scores=np.ones(1),
            )

    def test_rejects_bad_velocity_shape(self):
        with pytest.raises(ValueError):
            ObjectArray(
                labels=np.array(["Car"]),
                centers=np.zeros((1, 3)),
                sizes=np.ones((1, 3)),
                yaws=np.zeros(1),
                scores=np.ones(1),
                velocities=np.zeros((1, 3)),
            )

    def test_from_boxes(self):
        boxes = [
            BoundingBox3D([0, 0, 0], [1, 1, 1], 0.1),
            BoundingBox3D([5, 0, 0], [2, 2, 2], 0.2),
        ]
        objects = ObjectArray.from_boxes(boxes, ["Car", "Truck"], [0.9, 0.8])
        assert len(objects) == 2
        assert objects.box(1) == boxes[1]
        assert objects.scores[0] == pytest.approx(0.9)

    def test_from_boxes_default_scores(self):
        objects = ObjectArray.from_boxes(
            [BoundingBox3D([0, 0, 0], [1, 1, 1])], ["Car"]
        )
        assert objects.scores[0] == pytest.approx(1.0)

    def test_from_boxes_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            ObjectArray.from_boxes([], ["Car"])


class TestAccessors:
    def test_box_materialization(self):
        objects = make_objects()
        box = objects.box(1)
        assert isinstance(box, BoundingBox3D)
        assert np.allclose(box.center, [3, 4, 5])

    def test_boxes_list(self):
        assert len(make_objects(4).boxes()) == 4

    def test_distances_to_origin(self):
        objects = ObjectArray(
            labels=np.array(["Car"]),
            centers=np.array([[3.0, 4.0, 99.0]]),
            sizes=np.ones((1, 3)),
            yaws=np.zeros(1),
            scores=np.ones(1),
        )
        assert objects.distances_to_origin()[0] == pytest.approx(5.0)

    def test_label_set(self):
        assert make_objects(3).label_set() == {"Car", "Pedestrian"}


class TestCombinators:
    def test_filter_by_mask(self):
        objects = make_objects(4, with_velocity=True, with_ids=True)
        subset = objects.filter(objects.labels == "Car")
        assert len(subset) == 2
        assert subset.velocities is not None
        assert subset.ids is not None

    def test_filter_by_index_array(self):
        objects = make_objects(5)
        subset = objects.filter(np.array([0, 4]))
        assert len(subset) == 2
        assert np.allclose(subset.centers[1], objects.centers[4])

    def test_translated(self):
        objects = make_objects(2)
        moved = objects.translated(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(moved.centers[0, :2], objects.centers[0, :2] + [1, 0])
        assert np.allclose(moved.centers[:, 2], objects.centers[:, 2])
        # Original untouched.
        assert not np.allclose(moved.centers, objects.centers)

    def test_translated_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            make_objects(2).translated(np.zeros((3, 2)))
