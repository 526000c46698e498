"""Unit tests for PointCloudFrame and FrameSequence."""

import numpy as np
import pytest

from repro.data import FrameSequence, ObjectArray, PointCloudFrame
from repro.geometry import Pose2D


def make_frame(frame_id, timestamp=None, n_objects=0, provider=None):
    labels = np.array(["Car"] * n_objects)
    return PointCloudFrame(
        frame_id=frame_id,
        timestamp=frame_id * 0.1 if timestamp is None else timestamp,
        ego_pose=Pose2D(0.0, 0.0, 0.0),
        ground_truth=ObjectArray(
            labels=labels,
            centers=np.zeros((n_objects, 3)),
            sizes=np.ones((n_objects, 3)),
            yaws=np.zeros(n_objects),
            scores=np.ones(n_objects),
        ),
        _points_provider=provider,
    )


def make_sequence(n=10, fps=10.0):
    return FrameSequence([make_frame(i) for i in range(n)], fps=fps, name="test")


class TestPointCloudFrame:
    def test_rejects_negative_id(self):
        with pytest.raises(ValueError, match="frame_id"):
            make_frame(-1)

    def test_rejects_nan_timestamp(self):
        with pytest.raises(ValueError, match="timestamp"):
            make_frame(0, timestamp=float("nan"))

    def test_points_default_empty(self):
        frame = make_frame(0)
        assert frame.points.shape == (0, 3)
        assert not frame.has_points

    def test_points_lazy_and_cached(self):
        calls = []

        def provider():
            calls.append(1)
            return np.ones((5, 3))

        frame = make_frame(0, provider=provider)
        assert frame.has_points
        assert frame.points.shape == (5, 3)
        assert frame.points.shape == (5, 3)
        assert len(calls) == 1  # cached after first access

    def test_drop_point_cache_regenerates(self):
        calls = []

        def provider():
            calls.append(1)
            return np.ones((2, 3))

        frame = make_frame(0, provider=provider)
        _ = frame.points
        frame.drop_point_cache()
        _ = frame.points
        assert len(calls) == 2

    def test_bad_provider_shape_raises(self):
        frame = make_frame(0, provider=lambda: np.ones((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            _ = frame.points

    def test_n_objects(self):
        assert make_frame(0, n_objects=4).n_objects == 4


class TestFrameSequence:
    def test_basic_properties(self):
        seq = make_sequence(10)
        assert len(seq) == 10
        assert seq.fps == 10.0
        assert seq.duration == pytest.approx(0.9)
        assert seq.frame_interval == pytest.approx(0.1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            FrameSequence([], fps=10.0)

    def test_rejects_non_contiguous_ids(self):
        frames = [make_frame(0), make_frame(2, timestamp=0.2)]
        with pytest.raises(ValueError, match="contiguous"):
            FrameSequence(frames, fps=10.0)

    def test_rejects_non_increasing_timestamps(self):
        frames = [make_frame(0, timestamp=1.0), make_frame(1, timestamp=0.5)]
        with pytest.raises(ValueError, match="increasing"):
            FrameSequence(frames, fps=10.0)

    def test_indexing_and_slicing(self):
        seq = make_sequence(10)
        assert seq[3].frame_id == 3
        assert [f.frame_id for f in seq[2:5]] == [2, 3, 4]

    def test_iteration(self):
        assert [f.frame_id for f in make_sequence(4)] == [0, 1, 2, 3]

    def test_timestamps_array(self):
        seq = make_sequence(5)
        assert np.allclose(seq.timestamps, [0.0, 0.1, 0.2, 0.3, 0.4])

    def test_ground_truth_counts(self):
        frames = [make_frame(0, n_objects=2), make_frame(1, n_objects=5)]
        seq = FrameSequence(frames, fps=10.0)
        assert list(seq.ground_truth_counts()) == [2, 5]
        assert list(seq.ground_truth_counts("Car")) == [2, 5]
        assert list(seq.ground_truth_counts("Truck")) == [0, 0]

    def test_extended(self):
        seq = make_sequence(3)
        extended = seq.extended([make_frame(3), make_frame(4)])
        assert len(extended) == 5
        assert len(seq) == 3  # original untouched

    def test_extended_validates_continuation(self):
        seq = make_sequence(3)
        with pytest.raises(ValueError):
            seq.extended([make_frame(7)])

    @pytest.mark.parametrize(
        ("appended", "message"),
        [
            # id gap at the seam, and inside the appended batch
            ([(4, 0.4)], "frame at position 3 has id 4"),
            ([(3, 0.3), (5, 0.5)], "frame at position 4 has id 5"),
            # timestamp not increasing across the seam, and inside the batch
            ([(3, 0.2)], "strictly increasing"),
            ([(3, 0.3), (4, 0.3)], "strictly increasing"),
        ],
    )
    def test_extended_raises_what_construction_raises(self, appended, message):
        """Only the seam and the new frames are checked, with the same errors."""
        seq = make_sequence(3)
        new_frames = [make_frame(i, timestamp=t) for i, t in appended]
        with pytest.raises(ValueError, match=message) as extended_error:
            seq.extended(new_frames)
        with pytest.raises(ValueError) as construction_error:
            FrameSequence(list(seq) + new_frames, fps=seq.fps, name=seq.name)
        assert str(extended_error.value) == str(construction_error.value)

    def test_extended_shares_prefix_and_matches_construction(self):
        seq = make_sequence(3)
        new_frames = [make_frame(3), make_frame(4)]
        extended = seq.extended(new_frames)
        built = FrameSequence(list(seq) + new_frames, fps=seq.fps, name=seq.name)
        assert list(extended) == list(built)
        assert np.array_equal(extended.timestamps, built.timestamps)
        assert (extended.fps, extended.name) == (built.fps, built.name)

    def test_head(self):
        seq = make_sequence(10)
        head = seq.head(4)
        assert len(head) == 4
        assert head.fps == seq.fps

    def test_head_bounds(self):
        with pytest.raises(ValueError):
            make_sequence(3).head(0)
        with pytest.raises(ValueError):
            make_sequence(3).head(4)
