"""Serving-layer throughput: batched caching service vs serial engine.

The serving layer (``repro.serving.QueryService``) answers a workload by
parsing it up front, grouping queries by object filter, computing each
distinct count series once through the batched provider kernels
(``count_series_many``), and answering the queries in order on the
calling thread.
This bench measures that against the serial baseline
(``MASTPipeline.query_many``) on the same 50-query workload, both from a
cold provider cache, and checks that

* the batched path is faster in wall-clock terms, and
* the shared cache registers hits (the workload repeats object filters).

The timed operation is one cold ``execute_batch`` of the workload.
"""

from __future__ import annotations

import time

import pytest

from benchmarks._harness import SEED, emit, get_sequence, percentiles
from repro.core import MASTConfig, MASTPipeline
from repro.evalx import format_table
from repro.models import make_model
from repro.query import generate_workload
from repro.serving import QueryService

N_QUERIES = 50
REPEATS = 5


@pytest.fixture(scope="module")
def pipeline():
    sequence = get_sequence("semantickitti", 0)
    model = make_model("pv_rcnn", seed=5)
    return MASTPipeline(MASTConfig(seed=SEED)).fit(sequence, model)


@pytest.fixture(scope="module")
def workload():
    """50 queries with repeated object filters (15 exact repeats)."""
    queries = list(generate_workload(rng=SEED).all_queries())
    return queries[:35] + queries[:15]


def _cold(pipeline: MASTPipeline) -> None:
    for provider in pipeline.providers.values():
        provider.clear_count_cache()


def _serial_run(pipeline, queries) -> float:
    _cold(pipeline)
    start = time.perf_counter()
    pipeline.query_many(queries)
    return time.perf_counter() - start


def _batched_run(pipeline, queries):
    _cold(pipeline)
    service = QueryService(pipeline)
    start = time.perf_counter()
    service.execute_batch(queries)
    return time.perf_counter() - start, service.cache_stats()


def _latency_samples(pipeline, queries, *, passes: int = 4) -> list[float]:
    """Per-query warm latencies through the service (seconds)."""
    service = QueryService(pipeline)
    service.execute_batch(queries)  # warm the shared series cache
    samples = []
    for _ in range(passes):
        for query in queries:
            start = time.perf_counter()
            service.execute(query)
            samples.append(time.perf_counter() - start)
    return samples


@pytest.fixture(scope="module")
def measurements(pipeline, workload):
    serial = min(_serial_run(pipeline, workload) for _ in range(REPEATS))
    batched, stats = min(
        (_batched_run(pipeline, workload) for _ in range(REPEATS)),
        key=lambda pair: pair[0],
    )
    return {
        "serial": serial,
        "batched": batched,
        "stats": stats,
        "latencies": _latency_samples(pipeline, workload),
    }


def test_serving_batch(measurements, pipeline, workload, benchmark):
    serial = measurements["serial"]
    batched = measurements["batched"]
    stats = measurements["stats"]
    tail = percentiles(measurements["latencies"])
    emit(
        "serving_batch",
        format_table(
            ["path", "wall-clock (ms)", "qps", "speedup", "cache hits", "misses"],
            [
                [
                    "query_many (serial)",
                    f"{1000 * serial:.1f}",
                    f"{N_QUERIES / serial:.0f}",
                    "1.00x",
                    "-",
                    "-",
                ],
                [
                    "execute_batch",
                    f"{1000 * batched:.1f}",
                    f"{N_QUERIES / batched:.0f}",
                    f"{serial / batched:.2f}x",
                    stats.hits,
                    stats.misses,
                ],
            ],
            title=f"{N_QUERIES}-query workload, {pipeline.index.n_frames} "
            "frames, cold caches (best of "
            f"{REPEATS}); warm per-query latency "
            f"p50={tail['p50']:.3f}ms p95={tail['p95']:.3f}ms "
            f"p99={tail['p99']:.3f}ms",
        ),
    )
    assert len(workload) == N_QUERIES
    assert stats.hits > 0, "workload repeats filters; the cache must hit"
    assert batched < serial, (
        f"execute_batch ({batched:.3f}s) should beat serial query_many "
        f"({serial:.3f}s)"
    )

    benchmark(lambda: _batched_run(pipeline, workload))
