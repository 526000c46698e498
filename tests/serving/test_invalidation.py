"""Incremental cache invalidation across ``extend()``.

Verifies the serving layer's contract on sequence extension: cached
series keep their provably-unchanged prefix, only tails are recomputed
(visible as partial hits) and only by the lookups that ask for them —
``extend`` itself counts nothing — and every post-extension answer is
still bit-identical to a cold serial baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MASTConfig, MASTPipeline
from repro.serving import QueryService
from repro.simulation import semantickitti_like
from tests.serving.harness import (
    assert_results_identical,
    random_workload,
    serial_uncached_answers,
)


@pytest.fixture()
def full_sequence():
    return semantickitti_like(0, n_frames=300, with_points=False)


@pytest.fixture()
def served(full_sequence, detector):
    pipeline = MASTPipeline(MASTConfig(seed=4)).fit(
        full_sequence.head(240, name=full_sequence.name), detector
    )
    return QueryService(pipeline), list(full_sequence[240:300])


class TestExtendInvalidation:
    def test_prefix_reused_as_partial_hits(self, served):
        service, tail_frames = served
        queries = random_workload(seed=7, n_queries=30)
        service.execute_batch(queries)
        warmed = service.cache_stats()
        assert warmed.entries > 0

        service.extend(tail_frames)
        after_extend = service.cache_stats()
        assert after_extend.invalidations >= warmed.entries

        service.execute_batch(queries)
        stats = service.cache_stats()
        assert stats.partial_hits > 0, "tail recompute should splice prefixes"
        # The whole second batch was served without one cold recompute.
        assert stats.misses == after_extend.misses

    def test_post_extend_answers_bit_identical(self, served):
        service, tail_frames = served
        queries = random_workload(seed=8, n_queries=40)
        service.execute_batch(queries)  # warm, then invalidate
        service.extend(tail_frames)
        results = service.execute_batch(queries)
        pipeline = service.pipeline
        expected = serial_uncached_answers(
            pipeline.sampling_result, pipeline.config, queries
        )
        assert_results_identical(results, expected, "[post-extend]")

    def test_generation_advances(self, served):
        service, tail_frames = served
        assert service.generation == 0
        service.extend(tail_frames[:30])
        assert service.generation == 1
        service.extend(tail_frames[30:])
        assert service.generation == 2
        assert service.n_frames == 300

    def test_boundary_recorded_and_prefix_unchanged(self, served):
        """The recorded boundary really bounds the changed region."""
        service, tail_frames = served
        pipeline = service.pipeline
        provider = pipeline.providers["st"]
        from repro.query import ObjectFilter, SpatialPredicate

        probes = [
            ObjectFilter(label="Car", spatial=SpatialPredicate("<=", 15.0)),
            ObjectFilter(label="Pedestrian"),
            ObjectFilter(),
        ]
        before = {f: provider.count_series(f).copy() for f in probes}
        old_n = pipeline.sampling_result.n_frames

        service.extend(tail_frames)
        boundary = pipeline.last_extend_boundary
        assert boundary is not None
        assert -1 <= boundary <= old_n - 2

        new_provider = pipeline.providers["st"]
        for probe in probes:
            after = new_provider.count_series(probe)
            if boundary >= 0:
                assert np.array_equal(
                    before[probe][: boundary + 1], after[: boundary + 1]
                )

    def test_extend_counts_nothing(self, served, counted_rows):
        """No filter asked before an extend is re-counted by it."""
        service, tail_frames = served
        queries = [
            f"SELECT AVG OF COUNT({label} DIST <= {cut})"
            for label in ("Car", "Pedestrian", "Cyclist")
            for cut in range(5, 25)
        ]
        service.execute_batch(queries)
        assert service.cache_stats().entries == len(queries)

        counted_rows.clear()
        boundaries = []
        for frames in (tail_frames[:30], tail_frames[30:]):
            service.extend(frames)
            boundaries.append(service.pipeline.last_extend_boundary)
        assert counted_rows == []

        # The read that asks for a truncated entry completes it, tail
        # only: from the sample bracketing the first frame neither
        # extension proved unchanged.
        sampled_ids = service.pipeline.sampling_result.sampled_ids
        start = min(boundaries) + 1
        first = np.searchsorted(sampled_ids, start, side="right") - 1
        service.execute(queries[0])
        ((_, n_samples),) = counted_rows
        assert 0 < n_samples == len(sampled_ids) - first < len(sampled_ids)
