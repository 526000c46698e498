"""A repeated single-filter query is answered from its cache entry.

The answer is kept on its count series' cache entry, so every client
that repeats the query shares one result object: its arrays are
read-only from the first (miss) request on, and one client cannot change
what another is served.  An answer is admitted to the entry only when
its series was cached before the request that evaluated it: the first
ask computes the series, the second evaluates and keeps the answer, the
third is a lookup.  A request whose every series misses memoizes
nothing.  Compound retrievals are evaluated every time.
"""

from __future__ import annotations

import pytest

from repro.query import parse_query
from repro.serving import QueryService
from repro.query import engine as engine_module

SINGLE_FILTER = {
    "retrieval": "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 2",
    "med": "SELECT MED OF COUNT(Car)",
    "avg": "SELECT AVG OF COUNT(Pedestrian DIST <= 15)",
    "count": "SELECT COUNT FRAMES WHERE COUNT(Car) >= 3",
}
COMPOUND = "SELECT FRAMES WHERE COUNT(Car) >= 2 AND COUNT(Pedestrian) >= 1"


def _served_array(result):
    return result.frame_ids if hasattr(result, "frame_ids") else result.counts


@pytest.fixture()
def evaluations(monkeypatch):
    """Queries the answer path evaluated (rather than served from its memo)."""
    calls: list = []
    real = engine_module.evaluate_query

    def counting(query, resolve, n_frames):
        calls.append(query)
        return real(query, resolve, n_frames)

    monkeypatch.setattr(engine_module, "evaluate_query", counting)
    return calls


@pytest.mark.parametrize("name", sorted(SINGLE_FILTER))
def test_served_arrays_are_read_only_on_a_miss_and_a_repeat(kitti_pipeline, name):
    service = QueryService(kitti_pipeline)
    first, second, third = (service.execute(SINGLE_FILTER[name]) for _ in range(3))
    assert service.cache_stats().misses == 1
    for result in (first, second, third):
        array = _served_array(result)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = -1
    assert second is not first
    assert third is second


def test_a_repeat_is_a_lookup_not_an_evaluation(kitti_pipeline, evaluations):
    service = QueryService(kitti_pipeline)
    texts = list(SINGLE_FILTER.values())
    service.execute_batch(texts)
    assert len(evaluations) == len(texts)
    second = service.execute_batch(texts)
    assert len(evaluations) == 2 * len(texts)
    again = service.execute_batch(texts) + [service.execute(text) for text in texts]
    assert len(evaluations) == 2 * len(texts)
    assert all(a is b for a, b in zip(again, second + second))
    assert service.cache_stats().misses == len({parse_query(t).object_filter for t in texts})


def test_an_all_miss_batch_memoizes_nothing(kitti_pipeline, evaluations):
    service = QueryService(kitti_pipeline)
    texts = list(SINGLE_FILTER.values())
    # Each text twice: a repeat inside the request shares the first answer.
    first = service.execute_batch(texts + texts)
    assert len(evaluations) == len(texts)
    assert all(a is b for a, b in zip(first, first[len(texts) :]))
    stats = service.cache_stats()
    assert (stats.misses, stats.hits) == (stats.entries, 2 * len(texts))
    assert stats.bytes == stats.entries * 8 * service.n_frames


def test_compound_retrievals_evaluate_every_time(kitti_pipeline, evaluations):
    service = QueryService(kitti_pipeline)
    first, second = service.execute(COMPOUND), service.execute(COMPOUND)
    assert len(evaluations) == 2
    assert first is not second
    assert (first.frame_ids == second.frame_ids).all()


def test_memoized_frame_ids_count_toward_bytes(kitti_pipeline):
    service = QueryService(kitti_pipeline)
    series_bytes = 8 * service.n_frames
    service.execute(SINGLE_FILTER["retrieval"])
    assert service.cache_stats().bytes == series_bytes
    result = service.execute(SINGLE_FILTER["retrieval"])
    assert service.cache_stats().bytes == series_bytes + result.frame_ids.nbytes
    service.execute(SINGLE_FILTER["med"])
    service.execute(SINGLE_FILTER["med"])
    assert service.cache_stats().bytes == 2 * series_bytes + result.frame_ids.nbytes
