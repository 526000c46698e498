"""Unit tests for npz persistence."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.data import (
    FrameSequence,
    ObjectArray,
    load_detections,
    load_sequence,
    save_detections,
    save_sequence,
)
from repro.flow import stable_digest
from repro.simulation import semantickitti_like


@pytest.fixture(scope="module")
def small_sequence():
    return semantickitti_like(0, n_frames=30, with_points=False)


class TestSequenceRoundtrip:
    def test_roundtrip_preserves_metadata(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "seq.npz")
        loaded = load_sequence(path)
        assert loaded.name == small_sequence.name
        assert loaded.fps == small_sequence.fps
        assert len(loaded) == len(small_sequence)
        assert np.allclose(loaded.timestamps, small_sequence.timestamps)

    def test_roundtrip_preserves_ground_truth(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "seq.npz")
        loaded = load_sequence(path)
        for original, restored in zip(small_sequence, loaded):
            assert len(restored.ground_truth) == len(original.ground_truth)
            assert np.allclose(
                restored.ground_truth.centers, original.ground_truth.centers
            )
            assert np.array_equal(
                restored.ground_truth.labels, original.ground_truth.labels
            )
            assert np.array_equal(restored.ground_truth.ids, original.ground_truth.ids)

    def test_roundtrip_preserves_poses(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "seq.npz")
        loaded = load_sequence(path)
        for original, restored in zip(small_sequence, loaded):
            assert restored.ego_pose.x == pytest.approx(original.ego_pose.x)
            assert restored.ego_pose.yaw == pytest.approx(original.ego_pose.yaw)

    def test_points_not_persisted(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "seq.npz")
        loaded = load_sequence(path)
        assert not loaded[0].has_points

    def test_creates_parent_directories(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "deep" / "dir" / "seq.npz")
        assert path.exists()


class TestDetectionsRoundtrip:
    def test_roundtrip(self, small_sequence, tmp_path):
        from repro.models import pv_rcnn

        model = pv_rcnn(seed=1)
        detections = {
            frame.frame_id: model.detect(frame).objects
            for frame in small_sequence[:5]
        }
        path = save_detections(detections, tmp_path / "det.npz", model_name="pv_rcnn")
        restored, model_name = load_detections(path)
        assert model_name == "pv_rcnn"
        assert set(restored) == set(detections)
        for frame_id, objects in detections.items():
            assert np.allclose(restored[frame_id].centers, objects.centers)
            assert np.allclose(restored[frame_id].scores, objects.scores)

    def test_empty_detection_sets_survive(self, tmp_path):
        detections = {0: ObjectArray.empty(), 5: ObjectArray.empty()}
        path = save_detections(detections, tmp_path / "det.npz")
        restored, _ = load_detections(path)
        assert set(restored) == {0, 5}
        assert len(restored[0]) == 0


def _emptied(objects: ObjectArray) -> ObjectArray:
    """``objects`` with no rows, keeping its optional columns."""
    return objects.filter(np.zeros(len(objects), dtype=bool))


def _assert_same_objects(restored: ObjectArray, original: ObjectArray) -> None:
    for column in fields(ObjectArray):
        expected = getattr(original, column.name)
        actual = getattr(restored, column.name)
        if expected is None:
            assert actual is None, column.name
        else:
            np.testing.assert_array_equal(actual, expected, err_msg=column.name)


class TestLoadReadsEachMemberOnce:
    """A load decompresses each archive member once, however many frames
    it holds, and still splits the rows back to the right frames."""

    @staticmethod
    def counting_reads(monkeypatch):
        reads = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            reads.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        return reads

    @staticmethod
    def n_members(path) -> int:
        with np.load(path) as data:
            return len(data.files)

    def test_sequence_with_empty_frames_and_optional_columns(
        self, small_sequence, tmp_path, monkeypatch
    ):
        frames = [
            replace(frame, ground_truth=_emptied(frame.ground_truth))
            if frame.frame_id % 3 == 0 or frame.frame_id == len(small_sequence) - 1
            else frame
            for frame in small_sequence
        ]
        sequence = FrameSequence(frames, fps=small_sequence.fps, name=small_sequence.name)
        truth = sequence[1].ground_truth
        assert len(truth) and truth.velocities is not None and truth.ids is not None
        path = save_sequence(sequence, tmp_path / "seq.npz")
        members = self.n_members(path)

        reads = self.counting_reads(monkeypatch)
        loaded = load_sequence(path)
        assert len(reads) <= members
        assert len(loaded) == len(sequence)
        for original, restored in zip(sequence, loaded):
            _assert_same_objects(restored.ground_truth, original.ground_truth)

    def test_detections_with_empty_frames(self, small_sequence, tmp_path, monkeypatch):
        from repro.models import pv_rcnn

        model = pv_rcnn(seed=1)
        detections = {
            frame.frame_id: model.detect(frame).objects for frame in small_sequence
        }
        detections[0] = _emptied(detections[0])
        detections[7] = _emptied(detections[7])
        path = save_detections(detections, tmp_path / "det.npz", model_name="pv_rcnn")
        members = self.n_members(path)

        reads = self.counting_reads(monkeypatch)
        restored, _ = load_detections(path)
        assert len(reads) <= members
        assert list(restored) == sorted(detections)
        for frame_id, objects in detections.items():
            _assert_same_objects(restored[frame_id], objects)

    def test_miscounted_blocks_are_refused(self, small_sequence, tmp_path):
        path = save_sequence(small_sequence, tmp_path / "seq.npz")
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        counts = payload["block0_counts"].copy()
        counts[np.argmax(counts)] -= 1
        payload["block0_counts"] = counts
        np.savez_compressed(tmp_path / "short.npz", **payload)
        with pytest.raises(ValueError, match="row counts"):
            load_sequence(tmp_path / "short.npz")

    def test_block_frame_ids_off_the_file_order_are_refused(self, tmp_path):
        path = save_detections({3: ObjectArray.empty()}, tmp_path / "det.npz")
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["frame_ids"] = np.array([4], dtype=np.int64)
        np.savez_compressed(tmp_path / "moved.npz", **payload)
        with pytest.raises(ValueError, match="frame_ids"):
            load_detections(tmp_path / "moved.npz")


def _objects(labels, *, optional: bool) -> ObjectArray:
    n = len(labels)
    rows = np.arange(n, dtype=float)
    return ObjectArray(
        labels=labels,
        centers=np.stack([rows, -rows, rows / 2], axis=1),
        sizes=np.ones((n, 3)),
        yaws=rows / 10,
        scores=np.linspace(0.5, 1.0, n),
        velocities=np.stack([rows, rows], axis=1) if optional else None,
        ids=np.arange(n) + 100 if optional else None,
    )


class TestExactRoundtrip:
    """Every set comes back with the columns, dtypes and digest it was
    saved with: long labels, narrow label columns and frames with and
    without velocities / ids side by side."""

    SETS = {
        0: _objects(np.array(["A" * 20, "Car"]), optional=True),
        1: _objects(np.array(["Car", "Pedestrian"], dtype="<U10"), optional=False),
        2: _objects(np.array(["Cyclist"], dtype="<U10"), optional=True),
        3: ObjectArray.empty(),
        4: _objects(np.array(["Car", "Car", "Truck"], dtype="<U16"), optional=False),
    }

    def test_detections(self, tmp_path):
        path = save_detections(self.SETS, tmp_path / "det.npz")
        restored, _ = load_detections(path)
        assert list(restored) == list(self.SETS)
        for frame_id, objects in self.SETS.items():
            assert stable_digest(restored[frame_id]) == stable_digest(objects)
            _assert_same_objects(restored[frame_id], objects)

    def test_sequence(self, small_sequence, tmp_path):
        frames = [
            replace(frame, ground_truth=self.SETS[frame.frame_id])
            for frame in small_sequence[: len(self.SETS)]
        ]
        sequence = FrameSequence(frames, fps=small_sequence.fps, name="exact")
        loaded = load_sequence(save_sequence(sequence, tmp_path / "seq.npz"))
        assert stable_digest(loaded) == stable_digest(sequence)
        for original, restored in zip(sequence, loaded):
            assert stable_digest(restored.ground_truth) == stable_digest(
                original.ground_truth
            )
