"""Unit tests for the shared count-series cache."""

import numpy as np
import pytest

from repro.query import ObjectFilter, SpatialPredicate
from repro.serving import CacheStats, CountSeriesCache


def _key(threshold: float, kind: str = "st"):
    return (kind, ObjectFilter(label="Car", spatial=SpatialPredicate("<=", threshold)))


def _series(n: int, offset: float = 0.0) -> np.ndarray:
    return np.arange(n, dtype=float) + offset


class TestLookupAndPut:
    def test_miss_then_hit(self):
        cache = CountSeriesCache()
        key = _key(5.0)
        assert cache.lookup(key, 0) == (None, None)
        cache.put(key, _series(10), 0)
        series, prefix = cache.lookup(key, 0)
        assert prefix is None
        assert np.array_equal(series, _series(10))
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_generation_mismatch_is_miss(self):
        cache = CountSeriesCache()
        key = _key(5.0)
        cache.put(key, _series(10), 0)
        assert cache.lookup(key, 1) == (None, None)

    def test_stale_generation_put_dropped(self):
        cache = CountSeriesCache()
        cache.invalidate_tail(-1, 2)
        cache.put(_key(5.0), _series(10), 0)
        assert len(cache) == 0

    def test_stored_series_isolated_and_readonly(self):
        cache = CountSeriesCache()
        key = _key(5.0)
        source = _series(10)
        cache.put(key, source, 0)
        source[0] = 99.0
        series, _ = cache.lookup(key, 0)
        assert series[0] == 0.0
        assert not series.flags.writeable

    def test_put_replaces_and_rebalances_bytes(self):
        cache = CountSeriesCache()
        key = _key(5.0)
        cache.put(key, _series(10), 0)
        cache.put(key, _series(20), 0)
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.bytes == _series(20).nbytes


class TestEviction:
    def test_lru_order(self):
        cache = CountSeriesCache(max_entries=2)
        first, second, third = _key(1.0), _key(2.0), _key(3.0)
        cache.put(first, _series(5), 0)
        cache.put(second, _series(5), 0)
        cache.lookup(first, 0)  # refresh `first`
        cache.put(third, _series(5), 0)
        assert first in cache and third in cache
        assert second not in cache
        assert cache.stats().evictions == 1

    def test_bytes_tracks_evictions(self):
        cache = CountSeriesCache(max_entries=1)
        cache.put(_key(1.0), _series(100), 0)
        cache.put(_key(2.0), _series(7), 0)
        assert cache.stats().bytes == _series(7).nbytes

    def test_clear_counts_evictions(self):
        cache = CountSeriesCache()
        cache.put(_key(1.0), _series(5), 0)
        cache.put(_key(2.0), _series(5), 0)
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.bytes == 0
        assert stats.evictions == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            CountSeriesCache(max_entries=0)


class TestInvalidation:
    def test_tail_truncates_to_prefix(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.put(key, _series(10), 0)
        cache.invalidate_tail(3, 1)
        series, prefix = cache.lookup(key, 1)
        assert series is None
        assert np.array_equal(prefix, _series(4))
        assert cache.stats().partial_hits == 1
        assert cache.stats().invalidations == 1

    def test_negative_boundary_drops_everything(self):
        cache = CountSeriesCache()
        cache.put(_key(1.0), _series(10), 0)
        cache.put(_key(2.0), _series(10), 0)
        cache.invalidate_tail(-1, 1)
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.bytes == 0
        assert stats.invalidations == 2

    def test_double_invalidation_keeps_shortest_prefix(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.put(key, _series(10), 0)
        cache.invalidate_tail(6, 1)
        cache.invalidate_tail(2, 2)
        _, prefix = cache.lookup(key, 2)
        assert np.array_equal(prefix, _series(3))

    def test_truncated_entries_own_their_bytes(self):
        """A prefix is a compact array: ``bytes`` is what the cache keeps alive."""
        cache = CountSeriesCache()
        cache.put(_key(1.0), _series(1000), 0)
        cache.put(_key(2.0), _series(1000), 0)
        cache.invalidate_tail(99, 1)
        cache.put(_key(2.0), _series(1200), 1)
        cache.invalidate_tail(499, 2)  # one entry already shorter than the new prefix
        stored = [entry.series for entry in cache._entries.values()]
        assert [len(series) for series in stored] == [100, 500]
        assert all(series.base is None for series in stored)
        assert not any(series.flags.writeable for series in stored)
        assert cache.stats().bytes == sum(series.nbytes for series in stored)
        assert cache.stats().invalidations == 4

    def test_completed_entry_hits_again(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.put(key, _series(10), 0)
        cache.invalidate_tail(3, 1)
        cache.put(key, _series(12), 1)
        series, prefix = cache.lookup(key, 1)
        assert prefix is None
        assert len(series) == 12


class TestAnswers:
    def test_a_remembered_answer_comes_with_its_series_lookup(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.put(key, _series(10), 0)
        series, prefix, answer = cache.lookup_answer(key, 0, "q")
        assert (prefix, answer) == (None, None)
        cache.remember(key, 0, "q", "answer", nbytes=24)
        before = cache.stats()
        hit, prefix, answer = cache.lookup_answer(key, 0, "q")
        assert (hit is series, prefix, answer) == (True, None, "answer")
        hit, prefix = cache.lookup(key, 0)
        assert (hit is series, prefix) == (True, None)
        after = cache.stats()
        assert (after.hits, after.misses) == (before.hits + 2, before.misses)
        assert after.bytes == _series(10).nbytes + 24

    def test_only_a_complete_entry_of_the_generation_keeps_answers(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.remember(key, 0, "q", "no entry")
        cache.put(key, _series(10), 0)
        cache.remember(key, 1, "q", "stale generation")
        cache.invalidate_tail(3, 1)
        cache.remember(key, 1, "q", "prefix entry")
        series, prefix, answer = cache.lookup_answer(key, 1, "q")
        assert series is None and answer is None and len(prefix) == 4
        cache.put(key, _series(12), 1)
        assert cache.lookup_answer(key, 1, "q")[2] is None
        assert cache.stats().bytes == _series(12).nbytes

    @pytest.mark.parametrize(
        "drop",
        [
            lambda cache, key: cache.put(key, _series(10), 0),
            lambda cache, key: cache.put(_key(2.0), _series(10), 0),
            lambda cache, key: cache.invalidate_tail(9, 0),
            lambda cache, key: cache.bump(),
            lambda cache, key: cache.clear(),
        ],
        ids=["put-over", "evicted", "invalidate-tail", "bump", "clear"],
    )
    def test_answers_die_with_their_entry(self, drop):
        cache = CountSeriesCache(max_entries=1)
        key = _key(1.0)
        cache.put(key, _series(10), 0)
        cache.remember(key, 0, "q", "answer", nbytes=8)
        drop(cache, key)
        for generation in (0, 1):
            assert cache.lookup_answer(key, generation, "q")[2] is None
        assert not cache._answer_order
        stored = sum(entry.series.nbytes for entry in cache._entries.values())
        assert cache.stats().bytes == stored

    def test_answers_are_capped_cache_wide_least_recent_first(self):
        cache = CountSeriesCache(max_entries=2)
        first, second = _key(1.0), _key(2.0)
        cache.put(first, _series(4), 0)
        cache.put(second, _series(4), 0)
        cache.remember(first, 0, "a", "A", nbytes=1)
        cache.remember(second, 0, "b", "B", nbytes=2)
        assert cache.lookup_answer(first, 0, "a")[2] == "A"  # `b` is now least recent
        cache.remember(first, 0, "c", "C", nbytes=4)
        assert cache.lookup_answer(second, 0, "b")[2] is None
        assert cache.lookup_answer(first, 0, "a")[2] == "A"
        assert cache.lookup_answer(first, 0, "c")[2] == "C"
        assert cache.stats().bytes == 2 * _series(4).nbytes + 1 + 4
        assert cache.stats().evictions == 0


class TestStats:
    def test_monotone_counters_snapshot(self):
        cache = CountSeriesCache(max_entries=1)
        previous = cache.stats()
        for step in range(20):
            cache.lookup(_key(float(step % 3)), 0)
            cache.put(_key(float(step % 3)), _series(4), 0)
            current = cache.stats()
            for field in ("hits", "misses", "partial_hits", "evictions",
                          "invalidations"):
                assert getattr(current, field) >= getattr(previous, field)
            previous = current

    def test_hit_rate_and_lookups(self):
        cache = CountSeriesCache()
        key = _key(1.0)
        cache.lookup(key, 0)
        cache.put(key, _series(4), 0)
        cache.lookup(key, 0)
        stats = cache.stats()
        assert stats.lookups == 2
        assert stats.hit_rate == pytest.approx(0.5)

    def test_empty_stats(self):
        stats = CacheStats()
        assert stats.hit_rate == 0.0
        assert stats.as_dict()["entries"] == 0
        assert "0 hits" in stats.describe()
