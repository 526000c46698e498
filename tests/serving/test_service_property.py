"""Property test: service answers == fresh serial engine, always.

Hypothesis draws lists of single-condition retrievals, Avg / Med / Count
aggregates and compound conditions, and random cache bounds.  Each list
is answered (a batch, then query by query), then replayed after an
optional ``cache.clear()``, ``extend`` or ``adopt``.  The replay is
where memoized answers are served again, or must not be: under every
such schedule the :class:`QueryService` agrees exactly with a fresh
serial :class:`QueryEngine` evaluation of the epoch it answers.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import MASTConfig, MASTPipeline
from repro.query import (
    AggregateQuery,
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    CountPredicate,
    ObjectFilter,
    RetrievalQuery,
    SpatialPredicate,
)
from repro.serving import QueryService
from repro.simulation import semantickitti_like
from tests.serving.harness import assert_results_identical, serial_uncached_answers


N_FIT = 160


@pytest.fixture(scope="module")
def drive():
    return semantickitti_like(0, n_frames=N_FIT + 40, with_points=False)


@pytest.fixture(scope="module")
def replanned(drive, detector):
    """Another sampling run of the fitted prefix, for ``adopt``."""
    head = drive.head(N_FIT, name=drive.name)
    return MASTPipeline(MASTConfig(seed=18)).fit(head, detector).sampling_result


object_filters = st.builds(
    ObjectFilter,
    label=st.sampled_from(["Car", "Pedestrian", "Cyclist", None]),
    spatial=st.one_of(
        st.none(),
        st.builds(
            SpatialPredicate,
            op=st.sampled_from(["<=", ">="]),
            threshold=st.floats(min_value=1.0, max_value=30.0,
                                allow_nan=False, allow_infinity=False),
        ),
    ),
    confidence=st.sampled_from([0.3, 0.5, 0.7]),
)

count_predicates = st.builds(
    CountPredicate,
    op=st.sampled_from(["<=", ">=", "<", ">"]),
    threshold=st.integers(min_value=0, max_value=9).map(float),
)

conditions = st.builds(
    Condition, object_filter=object_filters, count_predicate=count_predicates
)

retrieval_queries = st.builds(
    RetrievalQuery, object_filter=object_filters, count_predicate=count_predicates
)

aggregate_queries = st.one_of(
    st.builds(
        AggregateQuery,
        object_filter=object_filters,
        operator=st.sampled_from(["Avg", "Med"]),
    ),
    st.builds(
        AggregateQuery,
        object_filter=object_filters,
        operator=st.just("Count"),
        count_predicate=count_predicates,
    ),
)


def _combine(children):
    combinator, parts = children
    return CompoundRetrievalQuery(condition=combinator(tuple(parts)))


compound_queries = st.tuples(
    st.sampled_from([ConditionAnd, ConditionOr]),
    st.lists(conditions, min_size=2, max_size=4),
).map(_combine)


def _answer(service, queries, split):
    """A batch of the first ``split`` queries, then the rest one by one."""
    return service.execute_batch(queries[:split]) + [
        service.execute(query) for query in queries[split:]
    ]


@given(
    queries=st.lists(
        st.one_of(retrieval_queries, aggregate_queries, compound_queries),
        min_size=1,
        max_size=8,
    ),
    max_entries=st.integers(min_value=1, max_value=6),
    between=st.sampled_from([None, "clear", "extend", "adopt"]),
    split=st.integers(min_value=0, max_value=8),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_batched_equals_fresh_serial(
    drive, replanned, detector, queries, max_entries, between, split
):
    pipeline = MASTPipeline(MASTConfig(seed=17)).fit(
        drive.head(N_FIT, name=drive.name), detector
    )
    service = QueryService(pipeline, max_cache_entries=max_entries)
    split = min(split, len(queries))

    before = _answer(service, queries, split)
    expected = serial_uncached_answers(pipeline.sampling_result, pipeline.config, queries)
    assert_results_identical(before, expected, "[property: first pass]")

    if between == "clear":
        service.cache.clear()
    elif between == "extend":
        service.extend(list(drive[N_FIT:]), model=detector)
    elif between == "adopt":
        service.adopt(drive.head(N_FIT, name=drive.name), detector, replanned)
    after = _answer(service, queries, len(queries) - split)
    if between in ("extend", "adopt"):
        expected = serial_uncached_answers(
            pipeline.sampling_result, pipeline.config, queries
        )
    assert_results_identical(after, expected, f"[property: replay after {between}]")
