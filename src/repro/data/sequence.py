"""Frame sequences.

A :class:`FrameSequence` is the unit the paper's pipeline operates on: an
ordered run of frames from one LiDAR sensor, with a fixed capture rate
(10 FPS for SemanticKITTI/SynLiDAR, 2 FPS for ONCE).  Sampling budgets,
segment trees and the index are all defined over one sequence.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence as AbcSequence

import numpy as np

from repro.data.frame import PointCloudFrame
from repro.utils.validation import require, require_positive

__all__ = ["FrameSequence"]


class FrameSequence(AbcSequence):
    """An ordered, contiguous run of :class:`PointCloudFrame` objects.

    Invariants enforced on construction:

    * frame ids are ``0..n-1`` in order (a :meth:`tail` view keeps its
      frames' true ids, so there they are contiguous from its offset);
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
        for i, frame in enumerate(frames):
            require(
                frame.frame_id == i,
                f"frame ids must be contiguous from 0; frame at position {i} "
                f"has id {frame.frame_id}",
            )
        timestamps = np.array([f.timestamp for f in frames], dtype=float)
        if len(timestamps) > 1:
            require(
                bool(np.all(np.diff(timestamps) > 0)),
                "frame timestamps must be strictly increasing",
            )
        self._frames = list(frames)
        self._timestamps = timestamps
        self.fps = float(fps)
        self.name = str(name)

    def _derived(
        self, frames: list[PointCloudFrame], timestamps: np.ndarray
    ) -> FrameSequence:
        """A sequence over already-validated frames of this one's stream."""
        derived = FrameSequence.__new__(FrameSequence)
        derived._frames = frames
        derived._timestamps = timestamps
        derived.fps = self.fps
        derived.name = self.name
        return derived

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._frames[index]
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
        n = len(self._frames)
        for i, frame in enumerate(new_frames, start=n):
            require(
                frame.frame_id == i,
                f"frame ids must be contiguous from 0; frame at position {i} "
                f"has id {frame.frame_id}",
            )
        timestamps = np.concatenate(
            [self._timestamps, np.array([f.timestamp for f in new_frames], dtype=float)]
        )
        require(
            bool(np.all(np.diff(timestamps[n - 1 :]) > 0)),
            "frame timestamps must be strictly increasing",
        )
        return self._derived(self._frames + new_frames, timestamps)

    def head(self, n_frames: int, name: str | None = None) -> FrameSequence:
        """Return a prefix of the sequence (used by the scalability sweep)."""
        require(0 < n_frames <= len(self), f"n_frames must be in [1, {len(self)}]")
        return FrameSequence(
            self._frames[:n_frames],
            fps=self.fps,
            name=name or f"{self.name}[:{n_frames}]",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrameSequence(name={self.name!r}, n={len(self)}, "
            f"fps={self.fps:g}, duration={self.duration:.1f}s)"
        )
