"""Unit tests for remaining engine / interval / viz edge paths."""

import numpy as np
import pytest

from repro.query import QueryEngine
from repro.query.ast import CompoundRetrievalQuery


class _Provider:
    simulated_query_cost_per_frame = 0.0
    n_frames = 10

    def count_series_many(self, filters, *, start=0):
        return {f: np.arange(float(start), 10.0) for f in filters}


class TestConditionMaskErrors:
    def test_unknown_condition_type_rejected(self):
        engine = QueryEngine(_Provider())
        with pytest.raises(TypeError, match="condition"):
            engine.execute(CompoundRetrievalQuery("not a condition"))


class TestCompoundResultMetadata:
    def test_compound_result_carries_query(self):
        from repro.query import (
            Condition,
            ConditionAnd,
            CountPredicate,
            ObjectFilter,
        )

        query = CompoundRetrievalQuery(
            ConditionAnd(
                (
                    Condition(ObjectFilter(label="Car"), CountPredicate(">=", 3)),
                    Condition(ObjectFilter(label="Car"), CountPredicate("<=", 8)),
                )
            )
        )
        result = QueryEngine(_Provider()).execute(query)
        assert result.query is query
        assert result.id_set() == {3, 4, 5, 6, 7, 8}
        assert result.selectivity == pytest.approx(0.6)


class TestRenderTracksLimits:
    def test_max_tracks_cap(self):
        from repro.tracking import Track, TrackObservation
        from repro.viz import render_tracks

        tracks = [
            Track(
                track_id=i,
                label="Car",
                observations=[
                    TrackObservation(0, 0.0, np.array([float(i), 0.0]), 0.9),
                    TrackObservation(1, 0.1, np.array([float(i), 1.0]), 0.9),
                ],
            )
            for i in range(15)
        ]
        art = render_tracks(tracks, max_tracks=3, extent=20.0)
        body = "\n".join(l for l in art.splitlines() if l.startswith("|"))
        # Only digits 0, 1, 2 may appear (ids 0-2).
        digits = {c for c in body if c.isdigit()}
        assert digits <= {"0", "1", "2"}


class TestIntervalCountClamp:
    def test_count_interval_value_preserved(self):
        from repro.core import HierarchicalMultiAgentSampler, MASTConfig
        from repro.evalx import aggregate_interval
        from repro.models import GroundTruthDetector
        from repro.query import parse_query
        from repro.simulation import semantickitti_like

        sequence = semantickitti_like(0, n_frames=200, with_points=False)
        sampling = HierarchicalMultiAgentSampler(MASTConfig(seed=1)).sample(
            sequence, GroundTruthDetector()
        )
        query = parse_query("SELECT COUNT FRAMES WHERE COUNT(Car) >= 1")
        interval = aggregate_interval(sampling, query, 50.0, lipschitz=0.5)
        assert interval.value == 50.0
        assert interval.low <= 50.0 <= interval.high
        assert interval.operator == "Count"


class TestHarnessHelpers:
    def test_scaled_length_floor(self):
        import sys

        sys.path.insert(0, "benchmarks")
        try:
            from benchmarks._harness import scaled_length

            assert scaled_length("semantickitti", 0, scale=0.001) == 1000
            assert scaled_length("synlidar", 0, scale=1.0) == 45076
        finally:
            sys.path.pop(0)
