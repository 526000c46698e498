"""Cross-run detection store.

Detectors in this reproduction are *deterministic per frame* (see
:class:`~repro.models.base.DetectionModel`), so a detection is a pure
function of the model and the frame.  The :class:`DetectionStore`
memoizes that function: entries are keyed by sequence id, frame id, a
model fingerprint (name, cost, seed, noise/confidence configuration) and
a content hash of the frame's ground truth, so two frames that merely
share an id can never alias each other's detections.  Every path that
detects — a batch fit, the streaming ``extend()`` tail, a re-plan —
presents a frame under its sequence's own name and its true frame id,
so one frame has one key: the seam frame an ``extend()`` samples again
is a hit, never a second bill.

The store is a bounded, thread-safe LRU like the serving layer's
:class:`~repro.serving.cache.CountSeriesCache`, with the same style of
exact hit/miss/eviction counters.  With ``persist_dir`` set, every entry
is also written as a single-frame detections ``.npz`` (the
:mod:`repro.data.storage` format), so a later *process* — a repeated CLI
``fit``, a benchmark sweep — starts warm from disk.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.annotations import ObjectArray
from repro.data.frame import PointCloudFrame
from repro.models.base import DetectionModel

__all__ = [
    "DetectionKey",
    "StoreStats",
    "DetectionStore",
    "detection_key",
    "model_fingerprint",
    "persist_sampled_detections",
    "load_sampled_detections",
]

#: Store key: ``(sequence id, frame id, model fingerprint, content hash)``.
DetectionKey = tuple[str, int, str, str]


def model_fingerprint(model: DetectionModel) -> str:
    """A string identifying a model's detection function.

    Two models with the same fingerprint must produce identical
    detections on identical frames.  The default covers the registry
    models: the class, the declared name/cost, and — when present — the
    seed and configuration attributes the simulated detectors and the
    clustering detector actually condition on.
    """
    # Wrappers that delegate detection to a ``base`` model share its
    # fingerprint: their detections are identical.
    base = getattr(model, "base", None)
    if isinstance(base, DetectionModel):
        return model_fingerprint(base)
    parts: list[str] = [type(model).__name__, model.name, repr(model.cost_per_frame)]
    # SimulatedDetector: detections depend on the seed and noise profile.
    seed = getattr(model, "_seed", None)
    if seed is not None:
        parts.append(f"seed={seed}")
    profile = getattr(model, "profile", None)
    if profile is not None:
        parts.append(repr(profile))
    # ClusteringDetector: detections depend on the grid parameters.
    for attribute in ("cell_size", "ground_margin", "min_points", "max_footprint"):
        value = getattr(model, attribute, None)
        if value is not None:
            parts.append(f"{attribute}={value!r}")
    digest = hashlib.blake2b("|".join(parts).encode("utf-8"), digest_size=8)
    return f"{model.name}:{digest.hexdigest()}"


def _frame_content_hash(frame: PointCloudFrame) -> str:
    """Hash of the frame fields a detector's output can depend on."""
    gt = frame.ground_truth
    digest = hashlib.blake2b(digest_size=12)
    digest.update(np.float64(frame.timestamp).tobytes())
    digest.update(np.int64(frame.frame_id).tobytes())
    for array in (gt.labels, gt.centers, gt.sizes, gt.yaws, gt.scores):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def detection_key(
    sequence_name: str, frame: PointCloudFrame, fingerprint: str
) -> DetectionKey:
    """The store key for one ``(sequence, frame, model)`` detection."""
    return (sequence_name, int(frame.frame_id), fingerprint, _frame_content_hash(frame))


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time snapshot of detection-store counters.

    ``hits``/``disk_hits``/``misses``/``evictions`` are cumulative;
    ``entries`` describes the current in-memory contents.  ``disk_hits``
    count lookups answered from the persistence directory (a subset of
    neither ``hits`` nor ``misses``: they are their own category).
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered without running the model."""
        lookups = self.lookups
        return (self.hits + self.disk_hits) / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.disk_hits} disk hits / "
            f"{self.misses} misses, {self.evictions} evictions, "
            f"{self.entries} entries"
        )


class DetectionStore:
    """Bounded LRU memo of per-frame detections, optionally disk-backed.

    ``max_entries`` bounds the in-memory entry count (least recently
    used evicted first; a SynLiDAR-scale 45k-frame oracle pass fits in
    the default).  ``persist_dir`` enables write-through persistence:
    entries are stored as single-frame ``.npz`` checkpoints named by a
    digest of their key, and lookups fall back to disk before reporting
    a miss, so separate processes share one warm store.  An entry that
    cannot be read back (torn, corrupted) is dropped and reported as a
    miss, never raised.

    # guarded-by: _lock: _entries, _hits, _disk_hits, _misses, _evictions
    """

    def __init__(
        self,
        max_entries: int = 65536,
        *,
        persist_dir: str | Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[DetectionKey, ObjectArray] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, key: DetectionKey) -> ObjectArray | None:
        """The memoized detections for ``key``, or ``None`` on a miss."""
        with self._lock:
            objects = self._entries.get(key)
            if objects is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return objects
        objects = self._disk_lookup(key)
        with self._lock:
            if objects is None:
                self._misses += 1
                return None
            self._disk_hits += 1
            self._insert(key, objects)
        return objects

    def put(self, key: DetectionKey, objects: ObjectArray) -> None:
        """Memoize ``objects`` for ``key`` (write-through when persistent)."""
        with self._lock:
            self._insert(key, objects)
        if self.persist_dir is not None:
            path = self._path_for(key)
            if not path.exists():
                from repro.data.storage import save_detections

                # Temp file + rename: a crash mid-write never leaves a
                # truncated entry under the name a later lookup trusts.
                scratch = path.with_name(
                    f"{path.stem}.{os.getpid()}-{threading.get_ident()}.tmp.npz"
                )
                save_detections({key[1]: objects}, scratch, model_name=key[2])
                os.replace(scratch, path)

    def _insert(self, key: DetectionKey, objects: ObjectArray) -> None:  # repro: locked[_lock]
        self._entries.pop(key, None)
        self._entries[key] = objects
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _path_for(self, key: DetectionKey) -> Path:
        assert self.persist_dir is not None
        digest = hashlib.blake2b(
            "\x1f".join(str(part) for part in key).encode("utf-8"), digest_size=16
        )
        return self.persist_dir / f"{digest.hexdigest()}.npz"

    def _disk_lookup(self, key: DetectionKey) -> ObjectArray | None:
        if self.persist_dir is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        from repro.data.storage import load_detections

        try:
            detections, _ = load_detections(path)
            return detections[key[1]]
        except Exception:  # a flipped byte can raise zlib.error, NotImplementedError, ...
            # An unreadable entry is a miss: the frame is re-detected,
            # and with the file gone that detection's put() rewrites it.
            path.unlink(missing_ok=True)
            return None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop the in-memory entries (persisted files are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: DetectionKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> StoreStats:
        """A consistent snapshot of all counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                disk_hits=self._disk_hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DetectionStore({self.stats().describe()})"


# ----------------------------------------------------------------------
# Shard warm-up path (process serving tier)
# ----------------------------------------------------------------------
def persist_sampled_detections(
    persist_dir: str | Path,
    sequence_name: str,
    frames: Sequence[PointCloudFrame],
    detections: Mapping[int, ObjectArray],
    model: DetectionModel,
) -> int:
    """Export one shard's sampled detections as npz store entries.

    The serving tier's parent process calls this before spawning (or
    after extending past) its shard workers: every ``frame_id ->
    detections`` entry is written under its canonical content key, so a
    worker rebuilding the shard resolves each sampled frame as a disk
    hit — warm-up costs npz reads, never model invocations.  Existing
    files are kept (``DetectionStore.put`` write-through skips them), so
    repeated exports after incremental extensions only pay for the new
    tail.  Returns the number of entries exported.
    """
    store = DetectionStore(max_entries=1, persist_dir=persist_dir)
    fingerprint = model_fingerprint(model)
    for frame_id, objects in detections.items():
        key = detection_key(sequence_name, frames[int(frame_id)], fingerprint)
        store.put(key, objects)
    return len(detections)


def load_sampled_detections(
    store: DetectionStore,
    sequence_name: str,
    frames: Sequence[PointCloudFrame],
    sampled_ids: Iterable[int],
    model: DetectionModel,
) -> dict[int, ObjectArray]:
    """Reload a shard's sampled detections through ``store``.

    The worker half of the warm-up path: each sampled frame resolves
    through the store's memory -> disk lookup chain.  A missing entry is
    a hard error — warm-up must never silently re-run the model, or the
    "zero invocations billed" invariant the process tier advertises
    would quietly stop being true.
    """
    fingerprint = model_fingerprint(model)
    out: dict[int, ObjectArray] = {}
    for frame_id in sampled_ids:
        frame = frames[int(frame_id)]
        key = detection_key(sequence_name, frame, fingerprint)
        objects = store.lookup(key)
        if objects is None:
            raise KeyError(
                f"detection store has no entry for sequence "
                f"{sequence_name!r} frame {int(frame_id)} "
                f"(fingerprint {fingerprint}); export with "
                f"persist_sampled_detections() before warming workers"
            )
        out[int(frame_id)] = objects
    return out
