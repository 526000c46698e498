"""The motion memo: ST-PC results computed once per set of detections.

Alg. 1 (ST-PC analysis of two sampled frames) and Eq. 1 (the reward of
a third against that prediction) are pure functions of the detection
sets they are given, and the engine hands the *same* detection objects
to every caller that asks for a frame again — a streaming re-plan
replays each sequence's sampler from frame 0 over detections earlier
epochs paid for, and the index closes gaps the sampler already analysed.
:class:`MotionMemo` is the one place those results are kept: owned by
the :class:`~repro.inference.engine.InferenceEngine` that owns the
detections, bounded, and gone with its pipeline.  Providers compute,
callers cache — nothing rides on an ``ObjectArray`` or a
``SamplingResult``, so nothing reaches a flow checkpoint or fingerprint.

The memo knows nothing of motion itself: what is computed, and what it
is keyed on, is said once by each function's memoizing wrapper in
:mod:`repro.core.stpc` and :mod:`repro.core.reward`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import Any, TypeVar

__all__ = ["MOTION_MEMO_ENTRIES", "MotionMemo"]

#: Entries one memo keeps.  A ``stream_mixed`` repetition, drain
#: included, holds 462 (319 estimates + 143 rewards) and evicts nothing:
#: a stream samples each frame once, and an index rebuild looks up only
#: the gaps its predecessor did not hold.  The bound leaves room for
#: sequences several times longer.  A constant, not a knob: no caller has
#: measured a need for another value.
MOTION_MEMO_ENTRIES = 4096

T = TypeVar("T")


class MotionMemo:
    """Bounded LRU of pure results keyed on detection-set identity.

    A key is the ``id()`` of each object plus the scalar arguments; the
    entry keeps the objects themselves alive, so an ``id()`` cannot be
    recycled into a stale hit for as long as the entry exists.

    # guarded-by: _lock: _entries, _hits, _misses, _evictions
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[tuple, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(
        self, kind: str, objects: tuple, scalars: tuple, compute: Callable[[], T]
    ) -> T:
        """``compute()``, or what it returned the last time for these inputs.

        ``objects`` match by identity (``is``), ``scalars`` by equality;
        ``kind`` keeps different functions of the same inputs apart.
        ``compute`` runs outside the lock; when two threads race on one
        key both compute and both are handed the first result stored.
        """
        key = (kind, *map(id, objects), *scalars)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[1]
            self._misses += 1
        value = compute()
        with self._lock:
            entry = self._entries.setdefault(key, (objects, value))
            if len(self._entries) > MOTION_MEMO_ENTRIES:
                self._entries.popitem(last=False)
                self._evictions += 1
        return entry[1]

    def stats(self) -> dict[str, int]:
        """``hits`` / ``misses`` / ``evictions`` / ``entries`` so far."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
