"""Unit tests for the query engine and workload generation."""

import numpy as np
import pytest

from repro.query import (
    AggregateResult,
    QueryEngine,
    RetrievalResult,
    generate_aggregate_workload,
    generate_retrieval_workload,
    generate_workload,
    parse_query,
)
from repro.query.predicates import ObjectFilter
from repro.utils.timing import STAGE_QUERY


class FakeProvider:
    """Deterministic counts: n_t = t mod 5, ignoring the filter."""

    simulated_query_cost_per_frame = 1e-6

    def __init__(self, n_frames=20):
        self.n_frames = n_frames

    def count_series_many(self, filters, *, start=0):
        return {f: (np.arange(start, self.n_frames) % 5).astype(float) for f in filters}


class TestQueryEngine:
    def test_retrieval(self):
        engine = QueryEngine(FakeProvider())
        result = engine.execute("SELECT FRAMES WHERE COUNT(Car) >= 4")
        assert isinstance(result, RetrievalResult)
        assert result.cardinality == 4  # t = 4, 9, 14, 19
        assert result.selectivity == pytest.approx(0.2)

    def test_aggregate_avg(self):
        engine = QueryEngine(FakeProvider())
        result = engine.execute("SELECT AVG OF COUNT(Car)")
        assert isinstance(result, AggregateResult)
        assert result.value == pytest.approx(2.0)

    def test_aggregate_count(self):
        engine = QueryEngine(FakeProvider())
        result = engine.execute("SELECT COUNT FRAMES WHERE COUNT(Car) >= 3")
        assert result.value == pytest.approx(8.0)

    def test_min_max_med(self):
        engine = QueryEngine(FakeProvider())
        assert engine.execute("SELECT MIN OF COUNT(Car)").value == 0.0
        assert engine.execute("SELECT MAX OF COUNT(Car)").value == 4.0
        assert engine.execute("SELECT MED OF COUNT(Car)").value == 2.0

    def test_accepts_query_objects(self):
        engine = QueryEngine(FakeProvider())
        query = parse_query("SELECT AVG OF COUNT(Car)")
        assert engine.execute(query).value == pytest.approx(2.0)

    def test_execute_many(self):
        engine = QueryEngine(FakeProvider())
        results = engine.execute_many(
            ["SELECT MIN OF COUNT(Car)", "SELECT MAX OF COUNT(Car)"]
        )
        assert [r.value for r in results] == [0.0, 4.0]

    def test_ledger_charged(self):
        engine = QueryEngine(FakeProvider(n_frames=1000))
        engine.execute("SELECT AVG OF COUNT(Car)")
        assert engine.ledger.total("query") > 0

    def test_rejects_unknown_type(self):
        engine = QueryEngine(FakeProvider())
        with pytest.raises(TypeError):
            engine.execute(42)

    def test_id_set(self):
        engine = QueryEngine(FakeProvider())
        result = engine.execute("SELECT FRAMES WHERE COUNT(Car) >= 4")
        assert result.id_set() == {4, 9, 14, 19}


class CountingProvider:
    """Per-filter series that records every ``count_series`` call."""

    simulated_query_cost_per_frame = 1e-6
    n_frames = 20

    def __init__(self):
        self.calls = []

    def count_series_many(self, filters, *, start=0):
        self.calls += filters
        return {f: np.arange(start, self.n_frames) * (0.25 + f.confidence) for f in filters}


class TestSeriesMemo:
    """An engine asks its provider once per distinct filter, through its cache."""

    QUERIES = [
        f"SELECT {head} COUNT({label}{conf}){tail}"
        for head, tail in (("FRAMES WHERE", " >= 3"), ("AVG OF", ""), ("MAX OF", ""))
        for label in ("Car", "Pedestrian")
        for conf in ("", " CONF 0.7")
    ]

    def test_one_provider_call_per_distinct_filter(self):
        provider = CountingProvider()
        engine = QueryEngine(provider)
        assert len(engine.cache) == 0
        engine.execute_many(self.QUERIES * 2)
        assert len(provider.calls) == len(set(provider.calls)) == 4
        assert set(engine.cache.keys()) == {("provider", f) for f in provider.calls}
        stats = engine.cache.stats()
        assert (stats.misses, stats.hits) == (4, 2 * len(self.QUERIES) - 4)

    def test_count_series_is_a_complete_hit_the_second_time(self):
        provider = CountingProvider()
        engine = QueryEngine(provider)
        car = ObjectFilter("Car")
        first = engine.count_series(car)
        assert engine.cache.stats().misses == 1 and engine.cache.stats().hits == 0
        second = engine.count_series(car)
        assert second is first and not second.flags.writeable
        stats = engine.cache.stats()
        assert (stats.hits, stats.partial_hits, stats.misses) == (1, 0, 1)
        assert provider.calls == [car]

    def test_a_repeated_answer_is_the_memoized_read_only_one(self):
        engine = QueryEngine(CountingProvider())
        text = "SELECT FRAMES WHERE COUNT(Car) >= 3"
        first, second, third = (engine.execute(text) for _ in range(3))
        assert first is not second and second is third
        assert np.array_equal(first.frame_ids, second.frame_ids)
        assert not second.frame_ids.flags.writeable
        assert engine.ledger.counts[STAGE_QUERY] == 3
        assert not engine.ledger.cache_hits and not engine.ledger.cache_misses

    def test_floored_view_shares_series_and_floors_them(self):
        """The ``linear_floor`` route reads the ``linear`` series, floored."""
        from repro.query.engine import SeriesState
        from repro.serving.batching import plan_batch
        from repro.serving.cache import CountSeriesCache
        from repro.utils.timing import CostLedger

        provider = CountingProvider()
        state = SeriesState(CountSeriesCache(), 0, provider.n_frames, {"linear": provider})
        ledger = CostLedger()

        def ask(text, kind):
            return state.answer(plan_batch([text], lambda _: kind, warm=False), ledger)[0]

        text = "SELECT MAX OF COUNT(Car)"
        continuous = ask(text, "linear").counts
        calls = list(provider.calls)
        result = ask(text, "linear_floor")
        assert provider.calls == calls
        assert not np.array_equal(continuous, np.floor(continuous))
        assert np.array_equal(result.counts, np.floor(continuous))
        # Either route resolves a new filter for both.
        ask("SELECT MAX OF COUNT(Pedestrian)", "linear_floor")
        ask("SELECT MAX OF COUNT(Pedestrian)", "linear")
        assert len(provider.calls) == len(calls) + 1
        assert ledger.counts[STAGE_QUERY] == 4


class TestExecuteManySemantics:
    """Result-order and ledger-charging contract of batch execution."""

    QUERIES = [
        "SELECT FRAMES WHERE COUNT(Car) >= 4",
        "SELECT MIN OF COUNT(Car)",
        "SELECT FRAMES WHERE COUNT(Car) >= 1",
        "SELECT MAX OF COUNT(Car)",
        "SELECT AVG OF COUNT(Car)",
    ]

    def test_results_preserve_submission_order(self):
        engine = QueryEngine(FakeProvider())
        results = engine.execute_many(self.QUERIES)
        assert [type(r).__name__ for r in results] == [
            "RetrievalResult",
            "AggregateResult",
            "RetrievalResult",
            "AggregateResult",
            "AggregateResult",
        ]
        assert results[0].cardinality == 4
        assert results[2].cardinality == 16
        assert (results[1].value, results[3].value) == (0.0, 4.0)

    def test_each_query_charged_exactly_once(self):
        provider = FakeProvider(n_frames=50)
        engine = QueryEngine(provider)
        engine.execute_many(self.QUERIES)
        assert engine.ledger.counts[STAGE_QUERY] == len(self.QUERIES)
        per_query = provider.simulated_query_cost_per_frame * provider.n_frames
        assert engine.ledger.simulated[STAGE_QUERY] == pytest.approx(
            len(self.QUERIES) * per_query
        )

    def test_batch_charge_equals_sequential_sum(self):
        batch_engine = QueryEngine(FakeProvider(n_frames=50))
        batch_engine.execute_many(self.QUERIES)

        serial_engine = QueryEngine(FakeProvider(n_frames=50))
        for query in self.QUERIES:
            serial_engine.execute(query)

        assert (
            batch_engine.ledger.counts[STAGE_QUERY]
            == serial_engine.ledger.counts[STAGE_QUERY]
        )
        assert batch_engine.ledger.simulated[STAGE_QUERY] == pytest.approx(
            serial_engine.ledger.simulated[STAGE_QUERY]
        )

    def test_pipeline_query_many_matches_engine_semantics(
        self, kitti_sequence, detector
    ):
        """query_many: order preserved, one charge per query."""
        from repro.core import MASTConfig, MASTPipeline

        pipeline = MASTPipeline(MASTConfig(seed=3)).fit(kitti_sequence, detector)
        before = pipeline.ledger.counts[STAGE_QUERY]
        queries = [
            "SELECT MIN OF COUNT(Car)",
            "SELECT FRAMES WHERE COUNT(Car) >= 1",
            "SELECT MAX OF COUNT(Car)",
        ]
        results = pipeline.query_many(queries)
        assert pipeline.ledger.counts[STAGE_QUERY] - before == len(queries)
        assert isinstance(results[0], AggregateResult)
        assert isinstance(results[1], RetrievalResult)
        assert results[0].value <= results[2].value


class TestWorkloadGeneration:
    def test_retrieval_grid_is_100(self):
        """The full Tbl-2 grid yields exactly the paper's 100 queries."""
        assert len(generate_retrieval_workload()) == 100

    def test_retrieval_queries_unique(self):
        queries = generate_retrieval_workload()
        assert len(set(queries)) == len(queries)

    def test_aggregate_default_is_30(self):
        assert len(generate_aggregate_workload(rng=0)) == 30

    def test_aggregate_operator_mix(self):
        queries = generate_aggregate_workload(rng=0)
        operators = {q.operator for q in queries}
        assert operators == {"Avg", "Med", "Count", "Min", "Max"}

    def test_count_queries_have_predicates(self):
        for query in generate_aggregate_workload(rng=0):
            if query.operator == "Count":
                assert query.count_predicate is not None
            else:
                assert query.count_predicate is None

    def test_workload_deterministic(self):
        a = generate_workload(rng=5)
        b = generate_workload(rng=5)
        assert a == b

    def test_workload_totals(self):
        workload = generate_workload(rng=0)
        assert len(workload) == 130
        assert len(workload.all_queries()) == 130

    def test_object_filters_deduplicated(self):
        workload = generate_workload(rng=0)
        filters = workload.object_filters()
        assert len(filters) == len(set(filters))
        assert all(isinstance(f, ObjectFilter) for f in filters)

    def test_custom_label(self):
        queries = generate_retrieval_workload("Pedestrian")
        assert all(q.object_filter.label == "Pedestrian" for q in queries)
