"""Request coalescing: identical in-flight queries share one computation.

The deterministic way to put N identical queries in flight at once is to
schedule them in a single ``_answer_many`` on the dispatcher loop: every
coroutine runs its synchronous prefix (coalescing-key lookup, pending
registration) before the loop can drain a batch to a worker, so joiners
always find the leader's entry.  "One computation" is then pinned three
ways: the joiners' answers are the *same object* as the leader's, the
dispatcher's ``coalesced`` counter moves by exactly N-1, and the worker
fleet's query-cache misses move by exactly the number of distinct count
series the query needs.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.query import parse_query, parse_scoped_query


def loop_submit(dispatcher, scoped_list):
    """Schedule a workload on the dispatcher loop in one loop iteration."""
    return asyncio.run_coroutine_threadsafe(
        dispatcher._answer_many(scoped_list), dispatcher._loop
    ).result()


def fleet_query_misses(service) -> int:
    return sum(
        stats.cache.misses
        for response in service.worker_stats()
        for stats in response.shards.values()
    )


class TestScopedCoalescing:
    def test_identical_inflight_queries_compute_once(self, mp_service):
        name = mp_service.names[0]
        # A query text no other test uses: the series must be cold.
        scoped = parse_scoped_query(
            f"SELECT MED OF COUNT(Pedestrian DIST <= 18) IN SEQUENCE {name}"
        )
        misses = fleet_query_misses(mp_service)
        coalesced = mp_service.dispatcher.counters()["coalesced"]
        results = loop_submit(mp_service.dispatcher, [scoped] * 8)
        assert len(results) == 8
        assert all(result is results[0] for result in results)
        after = mp_service.dispatcher.counters()
        assert after["coalesced"] == coalesced + 7
        # One cold series computed across the whole fleet, not eight.
        assert fleet_query_misses(mp_service) == misses + 1

    def test_answer_matches_serial_reference(self, mp_service, mp_corpus):
        name = mp_service.names[1]
        text = f"SELECT AVG OF COUNT(Car DIST <= 12) IN SEQUENCE {name}"
        [result] = loop_submit(
            mp_service.dispatcher, [parse_scoped_query(text)]
        )
        want = mp_corpus.shard(name).query(
            parse_query("SELECT AVG OF COUNT(Car DIST <= 12)")
        )
        assert result.value == want.value


class TestFanOutCoalescing:
    def test_identical_fanouts_share_gather_and_merge(self, mp_service):
        scoped = parse_scoped_query("SELECT MIN OF COUNT(Cyclist DIST <= 21)")
        misses = fleet_query_misses(mp_service)
        coalesced = mp_service.dispatcher.counters()["coalesced"]
        results = loop_submit(mp_service.dispatcher, [scoped] * 6)
        assert all(result is results[0] for result in results)
        assert (
            mp_service.dispatcher.counters()["coalesced"] == coalesced + 5
        )
        # One series per shard: the whole fan-out ran exactly once.
        assert fleet_query_misses(mp_service) == misses + len(
            mp_service.names
        )

    def test_fanout_answer_matches_serial_merge(self, mp_service, mp_corpus):
        text = "SELECT FRAMES WHERE COUNT(Car DIST <= 14) >= 1"
        result = mp_service.execute(text)
        want = mp_corpus.query(text)
        assert set(result.by_sequence) == set(want.by_sequence)
        assert result.id_set() == want.id_set()
        for name in mp_corpus.names:
            assert np.array_equal(
                result.by_sequence[name].frame_ids,
                want.by_sequence[name].frame_ids,
            )


class TestFacadeDedup:
    def test_duplicate_batch_collapses_before_the_loop(self, mp_service):
        """Duplicates inside one ``execute_batch`` never reach the event
        loop: the facade maps them onto one slot, so the loop-level
        ``coalesced`` counter does not move at all."""
        text = "SELECT MAX OF COUNT(Truck DIST <= 16)"
        coalesced = mp_service.dispatcher.counters()["coalesced"]
        results = mp_service.execute_batch([text] * 10)
        assert len(results) == 10
        assert all(result is results[0] for result in results)
        assert mp_service.dispatcher.counters()["coalesced"] == coalesced

    def test_mixed_batch_preserves_submission_order(self, mp_service):
        names = mp_service.names
        texts = [
            f"SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE {names[1]}",
            "SELECT AVG OF COUNT(Car)",
            f"SELECT AVG OF COUNT(Car) IN SEQUENCE {names[0]}",
            "SELECT FRAMES WHERE COUNT(Car) >= 1",
        ]
        results = mp_service.execute_batch(texts)
        assert hasattr(results[0], "frame_ids")        # shard retrieval
        assert hasattr(results[1], "by_sequence")      # corpus aggregate
        assert hasattr(results[2], "value")
        assert not hasattr(results[2], "by_sequence")  # shard aggregate
        assert hasattr(results[3], "id_set")           # corpus retrieval
