"""On-disk persistence for sequences and detection results.

Sequences serialize to a single ``.npz`` file: per-frame scalars
(timestamps, ego poses) plus the ground-truth objects of all frames
flattened into parallel arrays with a ``frame_index`` column.  Raw points
are *not* persisted — they are regenerable from the simulator and the
pipeline never stores them — which keeps files small (a 4,500-frame
sequence is a few megabytes).

Detection results (one :class:`~repro.data.annotations.ObjectArray` per
processed frame) use the same flattened layout, so a sampling run can be
checkpointed and reloaded without re-charging deep-model budget.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.data.sequence import FrameSequence
from repro.geometry.transforms import Pose2D

__all__ = [
    "save_sequence",
    "load_sequence",
    "save_detections",
    "load_detections",
]

_FORMAT_VERSION = 1


def _flatten_objects(
    object_sets: list[ObjectArray],
) -> dict[str, np.ndarray]:
    """Flatten per-frame object sets into parallel arrays with offsets."""
    frame_index = np.concatenate(
        [np.full(len(objs), i, dtype=np.int64) for i, objs in enumerate(object_sets)]
    ) if object_sets else np.zeros(0, dtype=np.int64)
    merged = ObjectArray.concatenate(list(object_sets))
    columns = {
        "obj_frame_index": frame_index,
        "obj_labels": merged.labels.astype("<U16"),
        "obj_centers": merged.centers,
        "obj_sizes": merged.sizes,
        "obj_yaws": merged.yaws,
        "obj_scores": merged.scores,
    }
    if merged.velocities is not None:
        columns["obj_velocities"] = merged.velocities
    if merged.ids is not None:
        columns["obj_ids"] = merged.ids
    return columns


def _unflatten_objects(data, n_frames: int) -> list[ObjectArray]:
    """Invert :func:`_flatten_objects`.

    Each member is read once (every ``data[name]`` decompresses the whole
    member) and its rows are split by frame, so a load is linear in the
    rows.  Each set's columns are disjoint, writable slices.
    """
    frame_index = data["obj_frame_index"]
    columns = {
        name: data[f"obj_{name}"] if f"obj_{name}" in data else None
        for name in ("labels", "centers", "sizes", "yaws", "scores", "velocities", "ids")
    }
    if np.any(frame_index[1:] < frame_index[:-1]):
        raise ValueError("object rows are not grouped by frame")
    bounds = np.searchsorted(frame_index, np.arange(n_frames + 1)).tolist()
    return [
        ObjectArray(
            **{
                name: None if column is None else column[start:stop]
                for name, column in columns.items()
            }
        )
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def save_sequence(sequence: FrameSequence, path: str | Path) -> Path:
    """Write ``sequence`` (metadata + ground truth, no points) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    poses = np.array(
        [[f.ego_pose.x, f.ego_pose.y, f.ego_pose.yaw] for f in sequence], dtype=float
    )
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "name": np.str_(sequence.name),
        "fps": np.float64(sequence.fps),
        "timestamps": sequence.timestamps,
        "ego_poses": poses,
        **_flatten_objects([f.ground_truth for f in sequence]),
    }
    np.savez_compressed(path, **payload)
    return path


def load_sequence(path: str | Path) -> FrameSequence:
    """Read a sequence previously written by :func:`save_sequence`."""
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported sequence format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        timestamps = data["timestamps"]
        poses = data["ego_poses"]
        n_frames = len(timestamps)
        object_sets = _unflatten_objects(data, n_frames)
        frames = [
            PointCloudFrame(
                frame_id=i,
                timestamp=float(timestamps[i]),
                ego_pose=Pose2D(*poses[i]),
                ground_truth=object_sets[i],
            )
            for i in range(n_frames)
        ]
        return FrameSequence(frames, fps=float(data["fps"]), name=str(data["name"]))


def save_detections(
    detections: dict[int, ObjectArray], path: str | Path, *, model_name: str = ""
) -> Path:
    """Write a ``frame_id -> ObjectArray`` detection map to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    frame_ids = sorted(detections)
    object_sets = [detections[i] for i in frame_ids]
    payload = {
        "format_version": np.int64(_FORMAT_VERSION),
        "model_name": np.str_(model_name),
        "frame_ids": np.asarray(frame_ids, dtype=np.int64),
        **_flatten_objects(object_sets),
    }
    np.savez_compressed(path, **payload)
    return path


def load_detections(path: str | Path) -> tuple[dict[int, ObjectArray], str]:
    """Read a detection map written by :func:`save_detections`.

    Returns ``(detections, model_name)``.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported detections format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        frame_ids = data["frame_ids"]
        object_sets = _unflatten_objects(data, len(frame_ids))
        return (
            {int(fid): objs for fid, objs in zip(frame_ids, object_sets)},
            str(data["model_name"]),
        )
