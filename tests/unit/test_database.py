"""The named-sequence registry (Problem 1's database): ``SequenceCatalog``
holding already-built sequences that grow by batched arrival."""

import pytest

from repro.corpus import SequenceCatalog
from repro.data import FrameSequence, ObjectArray, PointCloudFrame
from repro.geometry import Pose2D


def make_frame(frame_id):
    return PointCloudFrame(
        frame_id=frame_id,
        timestamp=frame_id * 0.5,
        ego_pose=Pose2D(0.0, 0.0, 0.0),
        ground_truth=ObjectArray.empty(),
    )


def make_sequence(name, n=5):
    return FrameSequence([make_frame(i) for i in range(n)], fps=2.0, name=name)


class TestIngestion:
    def test_ingest_and_get(self):
        db = SequenceCatalog()
        assert db.register_sequence(make_sequence("drive-a")) == "drive-a"
        assert "drive-a" in db
        assert len(db.sequence("drive-a")) == 5

    def test_duplicate_name_rejected(self):
        db = SequenceCatalog()
        db.register_sequence(make_sequence("drive-a"))
        with pytest.raises(ValueError, match="already registered"):
            db.register_sequence(make_sequence("drive-a"))

    def test_ingest_batch_appends(self):
        db = SequenceCatalog()
        db.register_sequence(make_sequence("drive-a", n=3))
        extended = db.extend_sequence("drive-a", [make_frame(3), make_frame(4)])
        assert len(extended) == 5
        assert db.sequence("drive-a") is extended
        assert db.n_frames("drive-a") == 5

    def test_ingest_batch_unknown_sequence(self):
        with pytest.raises(ValueError, match="unknown"):
            SequenceCatalog().extend_sequence("nope", [make_frame(0)])


class TestLookup:
    def test_get_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            SequenceCatalog().sequence("missing")

    def test_names_sorted(self):
        """Names come back in registration order, which routing relies on."""
        db = SequenceCatalog()
        db.register_sequence(make_sequence("zulu"))
        db.register_sequence(make_sequence("alpha"))
        assert db.names() == ("zulu", "alpha")

    def test_len_and_total_frames(self):
        db = SequenceCatalog()
        db.register_sequence(make_sequence("a", n=3))
        db.register_sequence(make_sequence("b", n=7))
        assert len(db) == 2
        assert db.total_frames() == 10
        db.extend_sequence("a", [make_frame(3)])
        assert db.total_frames() == 11

    def test_iteration(self):
        db = SequenceCatalog()
        db.register_sequence(make_sequence("a"))
        assert list(db) == ["a"]
