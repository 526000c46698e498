"""On-disk persistence for sequences and detection results.

Both files are ``.npz`` archives (format version 2) of a ``frame_id ->
ObjectArray`` map in its one column layout,
:func:`~repro.data.annotations.pack_frames`: the ``frame_ids`` in order,
then per block (the frames of one labels dtype and one set of optional
columns) its ``block<b>_frame_ids``, ``block<b>_counts`` and
``block<b>_<column>`` arrays.  So every set loads with the columns,
dtypes and digest it was saved with, and a detection run can be
checkpointed and reloaded without re-charging deep-model budget.

A sequence file is :meth:`~repro.data.sequence.FrameSequence.to_columns`:
the ground truth plus name, fps, timestamps and ego poses.  Raw points are
*not* persisted — they are regenerable from the simulator and the
pipeline never stores them — which keeps files small (a 4,500-frame
sequence is a few megabytes).  A file of another version, or whose blocks
do not add up, is refused with ``ValueError``.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.annotations import FrameColumns, ObjectArray, pack_frames, unpack_frames
from repro.data.sequence import FrameSequence

__all__ = ["save_sequence", "load_sequence", "save_detections", "load_detections"]

_FORMAT_VERSION = 2
_FIELDS = tuple(column.name for column in fields(ObjectArray))


def _save(path: str | Path, **members: Any) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, format_version=np.int64(_FORMAT_VERSION), **members)
    return path


@contextmanager
def _load(path: str | Path, what: str) -> Iterator[np.lib.npyio.NpzFile]:
    with np.load(Path(path), allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported {what} format version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        yield data


def _frame_members(packed: FrameColumns) -> dict[str, np.ndarray]:
    """The npz members of one :func:`pack_frames` map."""
    order, blocks = packed
    members = {"frame_ids": np.asarray(order, dtype=np.int64)}
    for b, (keys, counts, columns) in enumerate(blocks):
        members[f"block{b}_frame_ids"] = np.asarray(keys, dtype=np.int64)
        members[f"block{b}_counts"] = counts
        for name, column in zip(_FIELDS, columns):
            if column is not None:
                members[f"block{b}_{name}"] = column
    return members


def _read_frames(data: np.lib.npyio.NpzFile) -> FrameColumns:
    """Invert :func:`_frame_members`, reading each member once.

    A block's columns are checked as one :class:`ObjectArray` (shapes,
    equal lengths), its row counts against that length, and the blocks'
    frame ids against ``frame_ids``.
    """
    order = data["frame_ids"].tolist()
    blocks: list = []
    seen: list[int] = []
    while f"block{len(blocks)}_counts" in data:
        prefix = f"block{len(blocks)}_"
        keys = data[prefix + "frame_ids"].tolist()
        counts = data[prefix + "counts"]
        block = ObjectArray(
            **{name: data[prefix + name] if prefix + name in data else None for name in _FIELDS}
        )
        if len(keys) != len(counts) or np.any(counts < 0) or counts.sum() != len(block):
            raise ValueError(
                f"{prefix}counts: {len(keys)} frames with row counts summing "
                f"to {counts.sum()} do not match the block's {len(block)} rows"
            )
        blocks.append((keys, counts, tuple(getattr(block, name) for name in _FIELDS)))
        seen += keys
    if sorted(seen) != sorted(set(order)) or len(order) != len(seen):
        raise ValueError("the blocks' frame ids are not the file's frame_ids")
    return order, blocks


def save_sequence(sequence: FrameSequence, path: str | Path) -> Path:
    """Write ``sequence`` (metadata + ground truth, no points) to ``path``."""
    columns = sequence.to_columns()
    return _save(path, **_frame_members(columns.pop("ground_truth")), **columns)


def load_sequence(path: str | Path) -> FrameSequence:
    """Read a sequence previously written by :func:`save_sequence`."""
    with _load(path, "sequence") as data:
        columns = {name: data[name] for name in ("name", "fps", "timestamps", "ego_poses")}
        return FrameSequence.from_columns({**columns, "ground_truth": _read_frames(data)})


def save_detections(
    detections: dict[int, ObjectArray], path: str | Path, *, model_name: str = ""
) -> Path:
    """Write a ``frame_id -> ObjectArray`` detection map to ``path``."""
    packed = pack_frames({i: detections[i] for i in sorted(detections)})
    return _save(path, model_name=np.str_(model_name), **_frame_members(packed))


def load_detections(path: str | Path) -> tuple[dict[int, ObjectArray], str]:
    """Read a detection map written by :func:`save_detections`.

    Returns ``(detections, model_name)``.
    """
    with _load(path, "detections") as data:
        return unpack_frames(_read_frames(data)), str(data["model_name"])
