"""Array-backed containers for per-frame object sets.

Both ground-truth annotations and detector outputs are *sets of labelled
oriented boxes*.  Storing them as parallel numpy arrays (one row per
object) instead of lists of box objects keeps a 45,076-frame SynLiDAR-
scale sequence in tens of megabytes and lets the query engine evaluate
predicates with vectorized masks.  :class:`BoundingBox3D` views are
materialized on demand for the object-oriented public API.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from repro.geometry.box import BoundingBox3D

__all__ = ["ObjectArray", "FrameColumns", "pack_frames", "unpack_frames"]


def _column(values, name: str, shape_tail: tuple[int, ...], dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    expected_ndim = 1 + len(shape_tail)
    if arr.ndim != expected_ndim or arr.shape[1:] != shape_tail:
        raise ValueError(
            f"{name} must have shape (N, {', '.join(map(str, shape_tail))})"
            if shape_tail
            else f"{name} must have shape (N,)"
        )
    return arr


@dataclass(frozen=True, eq=False)
class ObjectArray:
    """A set of labelled, scored, oriented boxes in one frame's sensor frame.

    Attributes
    ----------
    labels:
        ``(N,)`` array of label strings (``"Car"``, ``"Pedestrian"``, ...).
    centers, sizes:
        ``(N, 3)`` box centers / extents.
    yaws:
        ``(N,)`` box headings in radians.
    scores:
        ``(N,)`` confidence scores in ``[0, 1]``; ground truth uses 1.0.
    velocities:
        Optional ``(N, 2)`` sensor-frame xy velocities (ground truth or
        ST-PC estimates).  ``None`` when unknown (raw detector output).
    ids:
        Optional ``(N,)`` persistent object identities (ground truth only;
        detectors never see them).
    """

    labels: np.ndarray
    centers: np.ndarray
    sizes: np.ndarray
    yaws: np.ndarray
    scores: np.ndarray
    velocities: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise ValueError("labels must have shape (N,)")
        n = len(labels)
        centers = _column(self.centers, "centers", (3,), float)
        sizes = _column(self.sizes, "sizes", (3,), float)
        yaws = _column(self.yaws, "yaws", (), float)
        scores = _column(self.scores, "scores", (), float)
        for name, arr in (
            ("centers", centers),
            ("sizes", sizes),
            ("yaws", yaws),
            ("scores", scores),
        ):
            if len(arr) != n:
                raise ValueError(f"{name} has {len(arr)} rows, expected {n}")
        velocities = self.velocities
        if velocities is not None:
            velocities = _column(velocities, "velocities", (2,), float)
            if len(velocities) != n:
                raise ValueError(f"velocities has {len(velocities)} rows, expected {n}")
        ids = self.ids
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValueError("ids must have shape (N,)")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "yaws", yaws)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "velocities", velocities)
        object.__setattr__(self, "ids", ids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> ObjectArray:
        """An object set with zero rows."""
        return cls(
            labels=np.empty(0, dtype="<U16"),
            centers=np.zeros((0, 3)),
            sizes=np.zeros((0, 3)),
            yaws=np.zeros(0),
            scores=np.zeros(0),
        )

    @classmethod
    def from_boxes(
        cls,
        boxes: list[BoundingBox3D],
        labels: list[str],
        scores: list[float] | None = None,
    ) -> ObjectArray:
        """Build from explicit :class:`BoundingBox3D` objects."""
        if len(boxes) != len(labels):
            raise ValueError("boxes and labels must have the same length")
        if not boxes:
            return cls.empty()
        if scores is None:
            scores = [1.0] * len(boxes)
        return cls(
            labels=np.asarray(labels, dtype="<U16"),
            centers=np.stack([b.center for b in boxes]),
            sizes=np.stack([b.size for b in boxes]),
            yaws=np.array([b.yaw for b in boxes], dtype=float),
            scores=np.asarray(scores, dtype=float),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.labels)

    def box(self, index: int) -> BoundingBox3D:
        """Materialize the ``index``-th box as a :class:`BoundingBox3D`."""
        return BoundingBox3D(self.centers[index], self.sizes[index], self.yaws[index])

    def boxes(self) -> list[BoundingBox3D]:
        """Materialize all boxes (O(N) object construction)."""
        return [self.box(i) for i in range(len(self))]

    def distances_to_origin(self) -> np.ndarray:
        """Planar distance of every box center from the sensor origin."""
        return np.hypot(self.centers[:, 0], self.centers[:, 1])

    def label_set(self) -> set[str]:
        """Distinct labels present in this object set."""
        return set(np.unique(self.labels).tolist())

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def filter(self, mask) -> ObjectArray:
        """Return the subset selected by a boolean mask or index array."""
        mask = np.asarray(mask)
        return ObjectArray(
            labels=self.labels[mask],
            centers=self.centers[mask],
            sizes=self.sizes[mask],
            yaws=self.yaws[mask],
            scores=self.scores[mask],
            velocities=None if self.velocities is None else self.velocities[mask],
            ids=None if self.ids is None else self.ids[mask],
        )

    def with_scores(self, scores) -> ObjectArray:
        """Return a copy with ``scores`` replaced."""
        return ObjectArray(
            labels=self.labels,
            centers=self.centers,
            sizes=self.sizes,
            yaws=self.yaws,
            scores=np.asarray(scores, dtype=float),
            velocities=self.velocities,
            ids=self.ids,
        )

    def translated(self, deltas) -> ObjectArray:
        """Return a copy with per-object xy translations applied.

        ``deltas`` has shape ``(N, 2)``; z coordinates are unchanged.
        This is the vectorized form of the constant-velocity motion step
        used by ST prediction.
        """
        deltas = np.asarray(deltas, dtype=float)
        if deltas.shape != (len(self), 2):
            raise ValueError(f"deltas must have shape ({len(self)}, 2)")
        centers = self.centers.copy()
        centers[:, :2] += deltas
        return ObjectArray(
            labels=self.labels,
            centers=centers,
            sizes=self.sizes,
            yaws=self.yaws,
            scores=self.scores,
            velocities=self.velocities,
            ids=self.ids,
        )

    @staticmethod
    def concatenate(parts: list[ObjectArray]) -> ObjectArray:
        """Concatenate object sets; velocity/id columns survive only if all parts have them."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return ObjectArray.empty()
        keep_vel = all(p.velocities is not None for p in parts)
        keep_ids = all(p.ids is not None for p in parts)
        return ObjectArray(
            labels=np.concatenate([p.labels for p in parts]),
            centers=np.concatenate([p.centers for p in parts]),
            sizes=np.concatenate([p.sizes for p in parts]),
            yaws=np.concatenate([p.yaws for p in parts]),
            scores=np.concatenate([p.scores for p in parts]),
            velocities=(
                np.concatenate([p.velocities for p in parts]) if keep_vel else None
            ),
            ids=np.concatenate([p.ids for p in parts]) if keep_ids else None,
        )

    def __getstate__(self) -> dict[str, np.ndarray | None]:
        """The columns, a read-only one as a writable copy.

        A read-only column is a view its owner shares (an experiment's
        replayed detections), not part of the value: a set pickled on its
        own pickles to the same bytes, and unpickles writable, either way.
        A map of sets inside a checkpointed sampling run does not come
        here: it pickles as columns (:func:`pack_frames`), whose
        concatenated arrays are fresh and writable anyway.
        """
        state = self.__dict__
        if all(value is None or value.flags.writeable for value in state.values()):
            return state
        return {
            name: value if value is None or value.flags.writeable else value.copy()
            for name, value in state.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectArray(n={len(self)}, labels={sorted(self.label_set())})"


_FIELDS = tuple(column.name for column in fields(ObjectArray))

#: One block of frames that share a column layout: their frame ids, their
#: row counts, and one concatenated array per field (``None`` where the
#: block's frames carry none).
_Block = tuple[list[int], np.ndarray, tuple[np.ndarray | None, ...]]
#: A ``frame_id -> ObjectArray`` map as columns: its frame ids in
#: insertion order, and its frames in blocks of one column layout each.
FrameColumns = tuple[list[int], list[_Block]]


def pack_frames(frames: Mapping[int, ObjectArray]) -> FrameColumns:
    """``frames`` as a few concatenated columns instead of one set per frame.

    Frames are grouped by column layout (the labels dtype and which
    optional columns they carry), so each one unpacks with its own
    dtypes.  A map of a few thousand small sets pickles and unpickles
    as a handful of arrays instead of tens of thousands.
    """
    layouts: dict[tuple, tuple[list[int], list[ObjectArray]]] = {}
    for key, objects in frames.items():
        layout = (objects.labels.dtype, objects.velocities is None, objects.ids is None)
        keys, sets = layouts.setdefault(layout, ([], []))
        keys.append(key)
        sets.append(objects)
    blocks = []
    for keys, sets in layouts.values():
        columns = tuple(
            None
            if getattr(sets[0], name) is None
            else np.concatenate([getattr(objects, name) for objects in sets])
            for name in _FIELDS
        )
        counts = np.array([len(objects) for objects in sets], dtype=np.int64)
        blocks.append((keys, counts, columns))
    return list(frames), blocks


def unpack_frames(packed: FrameColumns) -> dict[int, ObjectArray]:
    """The map :func:`pack_frames` packed, in its insertion order.

    Each set's columns are slices of the block's concatenated arrays:
    writable, and disjoint from every other set's.  The sets are built
    without re-validation, as an unpickled set is.
    """
    order, blocks = packed
    frames: dict[int, ObjectArray] = {}
    for keys, counts, columns in blocks:
        named = tuple(zip(_FIELDS, columns))
        start = 0
        for key, stop in zip(keys, np.cumsum(counts).tolist()):
            objects = object.__new__(ObjectArray)
            objects.__dict__.update(
                (name, None if column is None else column[start:stop])
                for name, column in named
            )
            frames[key] = objects
            start = stop
    if len(blocks) > 1:
        frames = {key: frames[key] for key in order}
    return frames
