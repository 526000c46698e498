"""Differential harness: batched/cached answers == serial uncached.

The acceptance bar for the serving layer: across randomized workloads
on several scenarios, every answer produced by the cached, batched
:class:`QueryService` is *bit-identical* — frame ids and
aggregate values — to a serial execution that recomputes everything
from scratch for every query.
"""

from __future__ import annotations

import pytest

from repro.serving import QueryService
from tests.serving.harness import (
    assert_results_identical,
    random_workload,
    serial_uncached_answers,
)

SCENARIOS = ("kitti", "once", "highway")
#: 80 randomized queries x 3 scenarios = 240 differential checks.
QUERIES_PER_SCENARIO = 80


@pytest.fixture(scope="module")
def baselines(scenario_pipelines):
    """Scenario -> (queries, serial uncached ground truth)."""
    out = {}
    for seed, name in enumerate(SCENARIOS):
        pipeline = scenario_pipelines[name]
        queries = random_workload(seed=100 + seed, n_queries=QUERIES_PER_SCENARIO)
        expected = serial_uncached_answers(
            pipeline.sampling_result, pipeline.config, queries
        )
        out[name] = (queries, expected)
    return out


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestBatchedEqualsSerialUncached:
    def test_execute_batch(self, scenario, scenario_pipelines, baselines):
        pipeline = scenario_pipelines[scenario]
        queries, expected = baselines[scenario]
        service = QueryService(pipeline)
        results = service.execute_batch(queries)
        assert_results_identical(results, expected, f"[{scenario} batch]")

    def test_execute_batch_warm_cache(self, scenario, scenario_pipelines, baselines):
        """A second batch over a warm cache changes nothing but the stats."""
        pipeline = scenario_pipelines[scenario]
        queries, expected = baselines[scenario]
        service = QueryService(pipeline)
        service.execute_batch(queries)
        cold = service.cache_stats()
        results = service.execute_batch(queries)
        warm = service.cache_stats()
        assert_results_identical(results, expected, f"[{scenario} warm]")
        assert warm.hits > cold.hits
        assert warm.misses == cold.misses

    def test_execute_serial_path(self, scenario, scenario_pipelines, baselines):
        """The one-at-a-time service path answers identically too."""
        pipeline = scenario_pipelines[scenario]
        queries, expected = baselines[scenario]
        service = QueryService(pipeline)
        results = service.execute_many(queries)
        assert_results_identical(results, expected, f"[{scenario} serial]")

    def test_bounded_cache_still_exact(self, scenario, scenario_pipelines, baselines):
        """A tiny cache forces evictions/recomputes without changing answers."""
        pipeline = scenario_pipelines[scenario]
        queries, expected = baselines[scenario]
        service = QueryService(pipeline, max_cache_entries=2)
        results = service.execute_batch(queries)
        assert_results_identical(results, expected, f"[{scenario} bounded]")
        assert service.cache_stats().evictions > 0


class TestWorkloadShape:
    def test_total_differential_coverage(self, baselines):
        total = sum(len(queries) for queries, _ in baselines.values())
        assert total >= 200
        assert len(baselines) >= 3

    def test_cache_hits_on_repeated_filters(self, scenario_pipelines, baselines):
        queries, _ = baselines["kitti"]
        service = QueryService(scenario_pipelines["kitti"])
        service.execute_batch(queries)
        stats = service.cache_stats()
        assert stats.hits > 0
        assert stats.misses == stats.entries
