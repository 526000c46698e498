"""Cost accounting for the query-processing pipeline.

The paper's efficiency results (Figs. 5-6, §6.1) hinge on the *ratio*
between deep-model inference time (~0.1 s per frame on their GPU) and the
much cheaper policy/index/query computation.  Without a GPU we reproduce
those results by *charging* simulated seconds for model invocations (each
model declares its per-frame cost) while measuring real wall-clock time
for the computation we actually perform.  A :class:`CostLedger` keeps
both, broken down by pipeline stage.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = ["CostLedger", "STAGE_MODEL", "STAGE_POLICY", "STAGE_INDEX", "STAGE_QUERY"]

STAGE_MODEL = "deep_model"
STAGE_POLICY = "policy"
STAGE_INDEX = "indexing"
STAGE_QUERY = "query"


@dataclass
class CostLedger:
    """Accumulates simulated and measured seconds per pipeline stage.

    All access goes through a lock, so one ledger may be charged from
    many threads (every serving client evaluates on its own thread)
    while another thread reads a consistent report.
    Besides seconds, the ledger counts the detection store's lookups
    (:meth:`record_cache`), the hits that bill no deep-model seconds.

    # guarded-by: _lock: simulated, measured, counts, cache_hits, cache_misses
    """

    simulated: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    measured: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    cache_hits: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    cache_misses: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    # The lock is constructed in __post_init__ (not via default_factory)
    # so its creation site is a plain assignment in this class — which is
    # how both the static lock index and the runtime witness
    # (repro.analysis.witness) attribute the lock to CostLedger._lock.
    _lock: threading.Lock = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pickling (serving-tier wire protocol)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        """Snapshot without the lock (locks cannot cross a pipe)."""
        with self._lock:
            return {
                key: value
                for key, value in self.__dict__.items()
                if key != "_lock"
            }

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def charge(self, stage: str, seconds: float, *, count: int = 1) -> None:
        """Charge ``seconds`` of *simulated* time to ``stage``.

        Used for deep-model invocations whose real cost (GPU inference)
        is not incurred in this environment.
        """
        if seconds < 0:
            raise ValueError(f"cannot charge negative time ({seconds})")
        with self._lock:
            self.simulated[stage] += seconds
            self.counts[stage] += count

    def measure(self, stage: str, *, count: int = 1) -> _Measure:
        """Context manager adding elapsed wall-clock time to ``stage``.

        ``count`` is how many invocations the timed block performs.
        """
        return _Measure(self, stage, count)

    def _add_measured(self, stage: str, elapsed: float, count: int) -> None:
        with self._lock:
            self.measured[stage] += elapsed
            self.counts[stage] += count

    def record_cache(self, stage: str, *, hit: bool, count: int = 1) -> None:
        """Record ``count`` cache lookups (hits or misses) for ``stage``."""
        with self._lock:
            if hit:
                self.cache_hits[stage] += count
            else:
                self.cache_misses[stage] += count

    def settle(self, stage: str, charges: Sequence[float]) -> None:
        """Charge each of ``charges`` to ``stage``, in one update.

        The charges are added one by one, in order, exactly as that many
        :meth:`charge` calls with ``count=0`` would add them, so the
        simulated total is the same float; a served batch times its
        invocations with :meth:`measure`.
        """
        if not charges:
            return
        if min(charges) < 0:
            raise ValueError(f"cannot charge negative time ({min(charges)})")
        with self._lock:
            simulated = self.simulated[stage]
            for seconds in charges:
                simulated += seconds
            self.simulated[stage] = simulated

    def merge(self, other: CostLedger) -> None:
        """Fold another ledger's charges into this one."""
        with other._lock:
            simulated = dict(other.simulated)
            measured = dict(other.measured)
            counts = dict(other.counts)
            cache_hits = dict(other.cache_hits)
            cache_misses = dict(other.cache_misses)
        with self._lock:
            for stage, sec in simulated.items():
                self.simulated[stage] += sec
            for stage, sec in measured.items():
                self.measured[stage] += sec
            for stage, n in counts.items():
                self.counts[stage] += n
            for stage, n in cache_hits.items():
                self.cache_hits[stage] += n
            for stage, n in cache_misses.items():
                self.cache_misses[stage] += n

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _total_locked(self, stage: str) -> float:  # repro: locked[_lock]
        return self.simulated.get(stage, 0.0) + self.measured.get(stage, 0.0)

    def total(self, stage: str) -> float:
        """Simulated + measured seconds attributed to ``stage``."""
        with self._lock:
            return self._total_locked(stage)

    @property
    def grand_total(self) -> float:
        """Simulated + measured seconds across all stages."""
        with self._lock:
            stages = set(self.simulated) | set(self.measured)
            return sum(self._total_locked(stage) for stage in stages)

    def summary(self) -> dict[str, float]:
        """Stage -> total seconds, for reports."""
        with self._lock:
            stages = sorted(set(self.simulated) | set(self.measured))
            return {stage: self._total_locked(stage) for stage in stages}

    def invocations(self, stage: str) -> int:
        """Number of charged invocations of ``stage``.

        Cache hits served by a detection store never call
        :meth:`charge`, so they do not count — the counter is the
        number of *actual* (simulated) model runs.
        """
        with self._lock:
            return self.counts.get(stage, 0)

    def deterministic_state(self) -> dict[str, dict[str, float] | dict[str, int]]:
        """The run-stable part of the ledger, for content fingerprints.

        Simulated seconds, invocation counts, and cache counters are pure
        functions of the (seeded) computation; measured wall-clock seconds
        are not, so the flow layer's checkpoint fingerprints hash exactly
        this snapshot and nothing else (two bit-identical runs then agree
        on every ledger digest no matter how fast each machine was).
        """
        with self._lock:
            return {
                "simulated": dict(self.simulated),
                "counts": dict(self.counts),
                "cache_hits": dict(self.cache_hits),
                "cache_misses": dict(self.cache_misses),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self.summary().items())
        return f"CostLedger({parts})"


class _Measure:
    """:meth:`CostLedger.measure`'s context manager (a class: it times hot paths)."""

    __slots__ = ("_ledger", "_stage", "_count", "_start")

    def __init__(self, ledger: CostLedger, stage: str, count: int) -> None:
        self._ledger = ledger
        self._stage = stage
        self._count = count
        self._start = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        self._ledger._add_measured(self._stage, time.perf_counter() - self._start, self._count)
