"""The request path: a served request runs on the thread that sent it.

``QueryService`` owns no threads, accounts a batch the way its
docstring promises next to a serial ``execute`` loop, and never yields:
the request's scheduling point belongs to ``CorpusQueryService``, the
layer clients call (``tests/corpus/test_corpus_request_path.py``).
"""

from __future__ import annotations

import threading

import pytest

from repro.serving import QueryService
from repro.serving.batching import plan_batch
from repro.utils.timing import STAGE_QUERY
from tests.serving.harness import assert_results_identical, random_workload

LEDGER_FIELDS = ("counts", "simulated")


def _query_ledger(pipeline) -> dict[str, float]:
    ledger = pipeline.ledger
    return {name: getattr(ledger, name)[STAGE_QUERY] for name in LEDGER_FIELDS}


def _ledger_delta(pipeline, run) -> tuple[list, dict[str, float]]:
    before = _query_ledger(pipeline)
    results = run()
    after = _query_ledger(pipeline)
    return results, {name: after[name] - before[name] for name in LEDGER_FIELDS}


def test_execute_batch_starts_no_threads(kitti_pipeline):
    queries = random_workload(seed=21, n_queries=16)
    with QueryService(kitti_pipeline) as service:
        before = set(threading.enumerate())
        for _ in range(50):
            service.execute_batch(queries)
        after = set(threading.enumerate())
    assert after == before
    assert not [t.name for t in after if t.name.startswith("repro-serve")]


def test_batch_is_accounted_like_a_serial_execute_loop(kitti_pipeline):
    """Same answers, charges, misses and cache entries as ``execute``.

    Two differences are by construction: the warm pass looks every
    distinct series up once before the queries read it, so a batch's
    cache counts exactly ``n_series`` more hits than the serial loop's
    (the ledger counts none: it is the bill only); and an
    answer is memoized only if its series was cached before its request,
    so the cold batch keeps no answer where the serial loop keeps those
    of queries whose series an earlier ``execute`` computed.
    """
    queries = random_workload(seed=22, n_queries=40)
    n_series = plan_batch(queries, kitti_pipeline.route).n_warm

    batch_service = QueryService(kitti_pipeline)
    batched, batch_ledger = _ledger_delta(
        kitti_pipeline, lambda: batch_service.execute_batch(queries)
    )
    serial_service = QueryService(kitti_pipeline)
    serial, serial_ledger = _ledger_delta(
        kitti_pipeline, lambda: [serial_service.execute(q) for q in queries]
    )

    assert_results_identical(batched, serial, "[batch vs serial execute]")
    assert batch_ledger["counts"] == serial_ledger["counts"]
    # Deltas of one shared float accumulator: equal up to its rounding.
    assert batch_ledger["simulated"] == pytest.approx(
        serial_ledger["simulated"], rel=1e-9
    )
    assert batch_ledger["counts"] == len(queries)
    assert STAGE_QUERY not in kitti_pipeline.ledger.cache_hits
    assert STAGE_QUERY not in kitti_pipeline.ledger.cache_misses

    batch_stats = batch_service.cache_stats()
    serial_stats = serial_service.cache_stats()
    assert batch_stats.hits == serial_stats.hits + n_series
    for name in ("misses", "partial_hits", "evictions", "invalidations", "entries"):
        assert getattr(batch_stats, name) == getattr(serial_stats, name), name
    assert batch_stats.misses == n_series
    series_bytes = batch_stats.entries * 8 * batch_service.n_frames
    assert batch_stats.bytes == series_bytes < serial_stats.bytes


def test_a_served_batch_counts_its_lookups_in_the_cache_only(kitti_pipeline):
    """The cache counts a request's lookups; the ledger is the bill only."""
    service = QueryService(kitti_pipeline)
    queries = random_workload(seed=24, n_queries=12)
    service.execute_batch(queries)
    service.execute_batch(queries)
    stats = service.cache_stats()
    assert stats.hits > 0 and stats.misses > 0
    assert STAGE_QUERY not in kitti_pipeline.ledger.cache_hits
    assert STAGE_QUERY not in kitti_pipeline.ledger.cache_misses


def test_public_calls_never_yield(kitti_pipeline, yields):
    service = QueryService(kitti_pipeline)
    queries = random_workload(seed=23, n_queries=6)
    service.execute(queries[0])
    service.execute_many(queries)
    service.execute_batch(queries)
    assert yields == []


def test_a_raising_request_does_not_yield(kitti_pipeline, yields):
    service = QueryService(kitti_pipeline)
    with pytest.raises(ValueError):
        service.execute_batch(["SELECT NONSENSE"])
    service.execute_batch(random_workload(seed=24, n_queries=3))
    assert yields == []
