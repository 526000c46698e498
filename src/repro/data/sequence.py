"""Frame sequences.

A :class:`FrameSequence` is the unit the paper's pipeline operates on: an
ordered run of frames from one LiDAR sensor, with a fixed capture rate
(10 FPS for SemanticKITTI/SynLiDAR, 2 FPS for ONCE).  Sampling budgets,
segment trees and the index are all defined over one sequence.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence as AbcSequence
from typing import Any

import numpy as np

from repro.data.annotations import pack_frames, unpack_frames
from repro.data.frame import PointCloudFrame
from repro.geometry.transforms import Pose2D
from repro.utils.validation import require, require_positive

__all__ = ["FrameSequence"]


class FrameSequence(AbcSequence):
    """An ordered, contiguous run of :class:`PointCloudFrame` objects.

    Invariants enforced on construction:

    * frame ids are ``0..n-1`` in order;
    * timestamps are strictly increasing;
    * ``fps`` is positive and consistent with the timestamps (the frame
      interval is ``1 / fps``).
    """

    def __init__(
        self,
        frames: list[PointCloudFrame],
        *,
        fps: float,
        name: str = "sequence",
    ) -> None:
        require(bool(frames), "a FrameSequence needs at least one frame")
        require_positive(fps, "fps")
        self._frames = list(frames)
        self._timestamps = _checked_timestamps(self._frames, 0, np.zeros(0))
        self.fps = float(fps)
        self.name = str(name)

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, index):
        return self._frames[index]

    def __iter__(self) -> Iterator[PointCloudFrame]:
        return iter(self._frames)

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    @property
    def timestamps(self) -> np.ndarray:
        """``(n,)`` array of frame timestamps in seconds."""
        return self._timestamps

    @property
    def duration(self) -> float:
        """Elapsed time from the first to the last frame, in seconds."""
        return float(self._timestamps[-1] - self._timestamps[0])

    @property
    def frame_interval(self) -> float:
        """Nominal time between consecutive frames (``1 / fps``)."""
        return 1.0 / self.fps

    def ground_truth_counts(self, label: str | None = None) -> np.ndarray:
        """Per-frame number of annotated objects (optionally one label).

        Used by tests and the Fig-12 sampling study; query processing
        always goes through a detector instead.
        """
        if label is None:
            return np.array([f.n_objects for f in self._frames], dtype=int)
        return np.array(
            [int(np.sum(f.ground_truth.labels == label)) for f in self._frames],
            dtype=int,
        )

    def extended(self, new_frames: list[PointCloudFrame]) -> FrameSequence:
        """Return a new sequence with ``new_frames`` appended.

        Models the paper's batched-arrival setting (Problem 1: "PC data
        periodically arrive at the server").  The new frames must continue
        the id and timestamp progression; only the seam and the appended
        frames are checked — the prefix was validated when it was built.
        """
        new_frames = list(new_frames)
        timestamps = _checked_timestamps(
            new_frames, len(self._frames), self._timestamps[-1:]
        )
        extended = FrameSequence.__new__(FrameSequence)
        extended.__dict__.update(
            self.__dict__,
            _frames=self._frames + new_frames,
            _timestamps=np.concatenate([self._timestamps, timestamps]),
        )
        return extended

    def head(self, n_frames: int, name: str | None = None) -> FrameSequence:
        """Return a prefix of the sequence (used by the scalability sweep)."""
        require(0 < n_frames <= len(self), f"n_frames must be in [1, {len(self)}]")
        return FrameSequence(
            self._frames[:n_frames],
            fps=self.fps,
            name=name or f"{self.name}[:{n_frames}]",
        )

    # ------------------------------------------------------------------
    # One column state: what a sequence pickles, fingerprints and saves as
    # ------------------------------------------------------------------
    def to_columns(self) -> dict[str, Any]:
        """``name``, ``fps``, ``timestamps``, the ``(n, 3)`` ``ego_poses``
        and the ``ground_truth`` as :func:`~repro.data.annotations.pack_frames`.

        Point clouds are left out, so a sequence whose frames carry them
        raises ``TypeError`` rather than come back without them.
        """
        frames = self._frames
        if any(frame.has_points for frame in frames):
            raise TypeError(f"sequence {self.name!r} carries point clouds; columns leave them out")
        poses = [(f.ego_pose.x, f.ego_pose.y, f.ego_pose.yaw) for f in frames]
        return {
            "name": self.name,
            "fps": self.fps,
            "timestamps": self._timestamps,
            "ego_poses": np.array(poses, dtype=float),
            "ground_truth": pack_frames({f.frame_id: f.ground_truth for f in frames}),
        }

    @classmethod
    def from_columns(cls, columns: dict[str, Any]) -> FrameSequence:
        """Invert :meth:`to_columns`: ``ValueError`` unless the columns hold
        one pose and one ground-truth set per timestamp, in frame order."""
        timestamps = np.asarray(columns["timestamps"], dtype=float).tolist()
        poses = np.asarray(columns["ego_poses"], dtype=float)
        n = len(timestamps)
        require(
            poses.shape == (n, 3) and columns["ground_truth"][0] == list(range(n)),
            f"sequence columns must hold {n} poses and ground-truth sets, in frame order",
        )
        truth = unpack_frames(columns["ground_truth"]).values()
        frames = [
            PointCloudFrame(i, t, Pose2D(*pose), objects)
            for i, (t, pose, objects) in enumerate(zip(timestamps, poses.tolist(), truth))
        ]
        return cls(frames, fps=columns["fps"], name=columns["name"])

    __getstate__ = __flow_fingerprint__ = to_columns

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(FrameSequence.from_columns(state).__dict__)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrameSequence(name={self.name!r}, n={len(self)}, "
            f"fps={self.fps:g}, duration={self.duration:.1f}s)"
        )


def _checked_timestamps(
    frames: list[PointCloudFrame], start: int, previous: np.ndarray
) -> np.ndarray:
    """The timestamps of ``frames``, which must carry ids ``start, start+1,
    …`` and strictly increasing timestamps after ``previous``."""
    for i, frame in enumerate(frames, start=start):
        require(
            frame.frame_id == i,
            f"frame ids must be contiguous from 0; frame at position {i} "
            f"has id {frame.frame_id}",
        )
    timestamps = np.array([f.timestamp for f in frames], dtype=float)
    require(
        bool(np.all(np.diff(np.concatenate([previous, timestamps])) > 0)),
        "frame timestamps must be strictly increasing",
    )
    return timestamps
