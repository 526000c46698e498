"""Shared count-series cache for the serving layer.

One :class:`CountSeriesCache` fronts every provider of a
:class:`~repro.serving.service.QueryService`.  Entries are keyed by
``(provider_kind, ObjectFilter)`` — both hashable — and carry a
*generation* number that advances on every ``extend()`` of the backing
pipeline.  Invalidation is incremental: instead of dropping entries
wholesale, :meth:`CountSeriesCache.invalidate_tail` truncates each
series to the prefix the extension provably left unchanged, so the next
lookup only recomputes the tail region.

An entry also holds the answers evaluated from its series
(:meth:`CountSeriesCache.remember`), so a query repeated within one
generation is one hit that also returns its answer
(:meth:`CountSeriesCache.lookup_answer`).  An answer lives and dies with
its entry: eviction, a ``put`` over the key, ``invalidate_tail``,
``bump`` and ``clear`` all replace or drop the entry, so no answer can
outlive the series it came from.  The entry bound also caps the answers
cache-wide, the least recently used shed first.

A served batch makes all of its lookups in one
:meth:`CountSeriesCache.lookup_many` walk: one critical section, in the
order the lookups would have been made one by one, that only stops
where a missed series must be stored before the next lookup.

All operations are guarded by one lock and stored arrays are read-only
copies, so concurrent readers can never observe a torn series and
:class:`CacheStats` counters are exact.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.query.predicates import ObjectFilter

__all__ = ["CacheKey", "CacheStats", "CountSeriesCache"]

#: Cache key: ``(provider_kind, object_filter)``.
CacheKey = tuple[str, ObjectFilter]


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of cache counters.

    ``hits``/``misses``/``partial_hits``/``evictions``/``invalidations``
    are cumulative (monotone non-decreasing over the cache's lifetime);
    ``entries`` and ``bytes`` describe the current contents.
    """

    hits: int = 0
    misses: int = 0
    partial_hits: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes: int = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Component-wise sum, for corpus-level rollups of shard caches."""
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            partial_hits=self.partial_hits + other.partial_hits,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            entries=self.entries + other.entries,
            bytes=self.bytes + other.bytes,
        )

    @property
    def lookups(self) -> int:
        """Total lookups served (hits + partial hits + misses)."""
        return self.hits + self.partial_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Complete hits per lookup, in [0, 1] (0 when no lookups yet)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "partial_hits": self.partial_hits,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "bytes": self.bytes,
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.partial_hits} partial / "
            f"{self.misses} misses, {self.evictions} evictions, "
            f"{self.invalidations} invalidations, "
            f"{self.entries} entries ({self.bytes / 1024:.1f} KiB)"
        )


class _Entry:
    __slots__ = ("series", "generation", "complete", "answers")

    def __init__(self, series: np.ndarray, generation: int, complete: bool) -> None:
        self.series = series
        self.generation = generation
        self.complete = complete
        #: Answer key -> ``(answer, bytes it keeps beside the series, its id)``.
        self.answers: dict[Hashable, tuple[Any, int, int]] = {}


class CountSeriesCache:
    """Bounded LRU cache of per-frame count series, with statistics.

    ``max_entries`` bounds the number of cached series; the least
    recently used entry is evicted first.  Every stored array is a
    read-only copy owned by the cache — providers keep no series of
    their own, so these entries are the only count-series state of a
    served shard — and safe to hand to concurrent readers.  The same
    bound caps the answers memoized on the entries, cache-wide.

    # guarded-by: _lock: _entries, _generation, _bytes, _answer_order, _answer_ids
    # guarded-by: _lock: _hits, _misses, _partial_hits, _evictions, _invalidations
    """

    def __init__(self, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        #: Answer id -> ``(key, answer_key)`` of every memoized answer, least
        #: recently used first (ids, not keys, so bookkeeping hashes an int).
        self._answer_order: OrderedDict[int, tuple[CacheKey, Hashable]] = OrderedDict()
        self._answer_ids = itertools.count()
        self._lock = threading.Lock()
        self._generation = 0
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._partial_hits = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self, key: CacheKey, generation: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Return ``(series, prefix)`` for ``key`` at ``generation``.

        Exactly one of three shapes: ``(series, None)`` — complete hit;
        ``(None, prefix)`` — the entry was truncated by an invalidation
        and only the prefix is valid; ``(None, None)`` — miss (also
        returned when the entry belongs to a different generation, so a
        reader racing an ``extend()`` never sees the other epoch's data).
        """
        series, prefix, _ = self.lookup_answer(key, generation, None)
        return series, prefix

    def lookup_answer(
        self, key: CacheKey, generation: int, answer_key: Hashable
    ) -> tuple[np.ndarray | None, np.ndarray | None, Any]:
        """:meth:`lookup`, plus the answer memoized as ``answer_key``.

        The answer (``None`` if there is none, and always for an
        ``answer_key`` of ``None``) is read after the series lookup, in
        the same critical section, and only on a complete hit; it counts
        nothing beyond the lookup itself.
        """
        (result,), _ = self.lookup_many([(key, answer_key)], generation)
        return result

    def lookup_many(
        self,
        probes: Sequence[tuple[CacheKey, Hashable]],
        generation: int,
        *,
        groups: Sequence[int] = (),
        start: int = 0,
    ) -> tuple[list[tuple[np.ndarray | None, np.ndarray | None, Any]], list[int]]:
        """:meth:`lookup_answer` of ``probes[start:]`` in order, in one critical section.

        A caller must store a missed series before any later probe
        looks, so the walk stops after the first probe that misses or
        hits only a prefix — unless that probe lies in a *group*: the
        probes before each end in ``groups`` (ascending ``probes``
        indices) form groups that are looked up whole before the walk
        stops.  Returns the results of the probes walked and the
        ``probes`` indices of those that missed or hit a prefix (all in
        the last group walked); the caller stores what missed and resumes
        at ``start + len(results)``.
        """
        results: list[tuple[np.ndarray | None, np.ndarray | None, Any]] = []
        missed: list[int] = []
        grouped = groups[-1] if groups else 0
        hits = 0
        append = results.append
        with self._lock:
            entries = self._entries
            for index, (key, answer_key) in enumerate(probes[start:], start):
                entry = entries.get(key)
                if entry is None or entry.generation != generation:
                    self._misses += 1
                    append((None, None, None))
                    missed.append(index)
                else:
                    entries.move_to_end(key)
                    if not entry.complete:
                        self._partial_hits += 1
                        append((None, entry.series, None))
                        missed.append(index)
                    else:
                        hits += 1
                        memo = entry.answers.get(answer_key) if entry.answers else None
                        if memo is None:
                            append((entry.series, None, None))
                        else:
                            self._answer_order.move_to_end(memo[2])
                            append((entry.series, None, memo[0]))
                if missed and (index >= grouped or index + 1 in groups):
                    break
            self._hits += hits
        return results, missed

    def put(
        self,
        key: CacheKey,
        series: np.ndarray,
        generation: int,
        *,
        complete: bool = True,
    ) -> np.ndarray:
        """Store ``series`` for ``key``; drops writes from stale generations.

        Returns the read-only copy the cache keeps (also when the write
        is dropped), so a caller hands out the cache's array.
        """
        stored = np.array(series, dtype=float, copy=True)
        stored.setflags(write=False)
        with self._lock:
            if generation != self._generation:
                return stored
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._drop(key, previous)
            self._entries[key] = _Entry(stored, generation, complete)
            self._bytes += stored.nbytes
            while len(self._entries) > self.max_entries:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._drop(evicted_key, evicted)
                self._evictions += 1
        return stored

    def _drop(self, key: CacheKey, entry: _Entry) -> None:  # repro: locked[_lock]
        """Account for ``entry`` and its answers leaving the cache."""
        self._bytes -= entry.series.nbytes
        for _, nbytes, answer_id in entry.answers.values():
            del self._answer_order[answer_id]
            self._bytes -= nbytes

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def remember(
        self,
        key: CacheKey,
        generation: int,
        answer_key: Hashable,
        answer: Any,
        nbytes: int = 0,
    ) -> None:
        """Memoize ``answer``, evaluated from ``key``'s series at ``generation``.

        Every later reader shares ``answer``, so its arrays must be
        read-only.  ``nbytes`` is what it keeps alive beside the series
        and counts toward ``bytes``.  Nothing is kept unless ``key`` has
        a complete entry of ``generation``; past ``max_entries`` answers
        cache-wide, the least recently used is shed.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.generation != generation or not entry.complete:
                return
            memo = (answer, nbytes, next(self._answer_ids))
            if entry.answers.setdefault(answer_key, memo) is not memo:
                return
            self._answer_order[memo[2]] = (key, answer_key)
            self._bytes += nbytes
            while len(self._answer_order) > self.max_entries:
                _, (shed_key, shed_answer) = self._answer_order.popitem(last=False)
                self._bytes -= self._entries[shed_key].answers.pop(shed_answer)[1]

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_tail(self, boundary: int, generation: int) -> None:
        """Advance to ``generation``, keeping series prefixes ``[0, boundary]``.

        Entries become incomplete prefix entries of the new generation
        (their tail region must be recomputed on next use); with
        ``boundary < 0`` nothing is reusable and all entries are
        dropped.  Each touched entry counts as one invalidation and
        loses its answers.  A shortened entry stores a compact copy of
        its prefix, so the dropped tail is freed and ``bytes`` stays what
        the cache keeps alive.
        """
        with self._lock:
            self._generation = int(generation)
            self._answer_order.clear()
            if boundary < 0:
                self._invalidations += len(self._entries)
                self._entries.clear()
                self._bytes = 0
                return
            keep = boundary + 1
            self._bytes = 0
            for key, entry in list(self._entries.items()):
                self._invalidations += 1
                prefix = entry.series
                if len(prefix) > keep:
                    prefix = prefix[:keep].copy()
                    prefix.setflags(write=False)
                self._entries[key] = _Entry(prefix, self._generation, False)
                self._bytes += prefix.nbytes

    def bump(self) -> int:
        """Advance one generation with nothing reusable; return it.

        :meth:`invalidate_tail` at boundary -1: every entry is dropped
        (each counted as one invalidation) and readers of the old
        generation miss cleanly.
        """
        generation = self.generation + 1
        self.invalidate_tail(-1, generation)
        return generation

    def clear(self) -> None:
        """Drop every entry (counted as evictions); generation is kept."""
        with self._lock:
            self._evictions += len(self._entries)
            self._entries.clear()
            self._answer_order.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[CacheKey]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> CacheStats:
        """A consistent snapshot of all counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                partial_hits=self._partial_hits,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CountSeriesCache({self.stats().describe()})"
