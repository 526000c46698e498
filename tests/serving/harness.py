"""Differential-testing harness for the serving layer.

Provides (a) a seeded random query generator spanning every query shape
— retrieval, all aggregate operators, and compound AND/OR conditions —
and (b) a serial *uncached* baseline executor that rebuilds the
providers from a sampling result and answers every query on a fresh
engine, so any answer it produces is a from-scratch ground truth for
the batched / cached / parallel service paths.
"""

from __future__ import annotations

import numpy as np

from repro.core import MASTIndex
from repro.core.index import LinearCountProvider
from repro.core.pipeline import predictor_kind
from repro.query import (
    AggregateQuery,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    CountPredicate,
    ObjectFilter,
    RetrievalQuery,
    RetrievalResult,
    SpatialPredicate,
)
from repro.query.engine import evaluate_query

LABELS = ("Car", "Pedestrian", "Cyclist", "Truck", None)
COUNT_OPS = ("<=", ">=", "<", ">")
AGG_OPS = ("Avg", "Med", "Count", "Min", "Max")


def random_object_filter(rng: np.random.Generator) -> ObjectFilter:
    label = LABELS[int(rng.integers(len(LABELS)))]
    spatial = None
    if rng.random() < 0.7:
        op = "<=" if rng.random() < 0.5 else ">="
        spatial = SpatialPredicate(op, float(np.round(rng.uniform(2.0, 25.0), 1)))
    confidence = float(rng.choice([0.3, 0.5, 0.5, 0.7]))
    return ObjectFilter(label=label, spatial=spatial, confidence=confidence)


def random_condition(rng: np.random.Generator) -> Condition:
    return Condition(
        object_filter=random_object_filter(rng),
        count_predicate=CountPredicate(
            COUNT_OPS[int(rng.integers(len(COUNT_OPS)))],
            float(rng.integers(0, 9)),
        ),
    )


def random_query(rng: np.random.Generator):
    """One random retrieval / aggregate / compound-retrieval query."""
    roll = rng.random()
    if roll < 0.4:
        condition = random_condition(rng)
        return RetrievalQuery(
            object_filter=condition.object_filter,
            count_predicate=condition.count_predicate,
        )
    if roll < 0.7:
        operator = AGG_OPS[int(rng.integers(len(AGG_OPS)))]
        count_predicate = None
        if operator == "Count":
            count_predicate = CountPredicate(
                COUNT_OPS[int(rng.integers(len(COUNT_OPS)))],
                float(rng.integers(0, 9)),
            )
        return AggregateQuery(
            object_filter=random_object_filter(rng),
            operator=operator,
            count_predicate=count_predicate,
        )
    n_leaves = int(rng.integers(2, 4))
    children = tuple(random_condition(rng) for _ in range(n_leaves))
    combinator = ConditionAnd if rng.random() < 0.5 else ConditionOr
    return CompoundRetrievalQuery(condition=combinator(children))


def random_workload(seed: int, n_queries: int) -> list:
    """``n_queries`` random queries; some repeat to exercise cache hits."""
    rng = np.random.default_rng(seed)
    queries = [random_query(rng) for _ in range(n_queries)]
    # Repeat ~20 % of the workload so shared series actually get reused.
    n_repeats = max(1, n_queries // 5)
    for _ in range(n_repeats):
        queries[int(rng.integers(n_queries))] = queries[
            int(rng.integers(n_queries))
        ]
    return queries


# ----------------------------------------------------------------------
# Serial uncached baseline
# ----------------------------------------------------------------------
def serial_uncached_answers(sampling, config, queries) -> list:
    """Ground-truth answers: serial evaluation over the providers, no cache.

    The floored-linear retrieval series is floored here, by hand.
    """
    st = MASTIndex.build(sampling, config)
    linear = LinearCountProvider(sampling)
    series = {
        "st": st.count_series,
        "linear": linear.count_series,
        "linear_floor": lambda object_filter: np.floor(linear.count_series(object_filter)),
    }
    return [
        evaluate_query(query, series[predictor_kind(config, query)], sampling.n_frames)
        for query in queries
    ]


def assert_results_identical(actual, expected, context: str = "") -> None:
    """Exact (bit-identical) equality of two result lists."""
    assert len(actual) == len(expected), context
    for position, (a, b) in enumerate(zip(actual, expected)):
        where = f"{context} query #{position}: {b.query.describe()}"
        assert type(a) is type(b), where
        assert a.query == b.query, where
        if isinstance(a, RetrievalResult):
            assert a.n_frames == b.n_frames, where
            assert np.array_equal(a.frame_ids, b.frame_ids), where
        else:
            # Exact float equality is the contract: same ops, same bits.
            assert a.value == b.value or (
                np.isnan(a.value) and np.isnan(b.value)
            ), where
            assert a.counts is not None and b.counts is not None, where
            assert np.array_equal(a.counts, b.counts, equal_nan=True), where
