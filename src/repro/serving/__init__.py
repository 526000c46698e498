"""Serving layer: batched, cached, concurrent query execution.

Fronts a fitted :class:`~repro.core.pipeline.MASTPipeline` with a
:class:`QueryService` — one shared count-series cache across all
predictors, batched workload execution on the caller's thread, and
incremental cache invalidation when the sequence is extended.
:class:`QueryService` is imported on first use: the pipeline plans and
caches through :mod:`repro.serving.batching` and
:mod:`repro.serving.cache`, and the service imports the pipeline.

The process tier (:mod:`repro.serving.mp`, :mod:`repro.serving.dispatcher`,
:mod:`repro.serving.protocol`) serves a fitted corpus read-only
from long-lived worker processes behind an asyncio dispatcher with
admission control and request coalescing; it is imported lazily by
:class:`~repro.corpus.CorpusQueryService` (``backend="process"``) so the
thread path never pays for it.
"""

from repro.serving.batching import base_kind, plan_batch
from repro.serving.cache import CacheKey, CacheStats, CountSeriesCache

__all__ = [
    "Dispatcher",
    "Overloaded",
    "ProcessShardPool",
    "WorkerClient",
    "CacheKey",
    "CacheStats",
    "CountSeriesCache",
    "QueryService",
    "base_kind",
    "plan_batch",
]


def __getattr__(name: str) -> object:
    """Lazy exports: the service, and the process tier (keeps asyncio/mp off hot paths)."""
    if name == "QueryService":
        from repro.serving.service import QueryService

        return QueryService
    if name in ("Dispatcher", "Overloaded"):
        from repro.serving import dispatcher

        return getattr(dispatcher, name)
    if name in ("ProcessShardPool", "WorkerClient"):
        from repro.serving import mp

        return getattr(mp, name)
    raise AttributeError(f"module 'repro.serving' has no attribute {name!r}")
