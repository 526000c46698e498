"""Property-based tests for the query layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    CountPredicate,
    ObjectFilter,
    QueryEngine,
    SpatialPredicate,
    aggregate,
    parse_query,
)

count_series = st.lists(
    st.floats(min_value=0, max_value=50, allow_nan=False), min_size=1, max_size=200
).map(np.asarray)


class _SeriesProvider:
    simulated_query_cost_per_frame = 0.0

    def __init__(self, series):
        self._series = np.asarray(series, dtype=float)
        self.n_frames = len(self._series)

    def count_series_many(self, filters, *, start=0):
        return {f: self._series[start:] for f in filters}


@given(count_series)
@settings(max_examples=100, deadline=None)
def test_aggregate_ordering_invariants(series):
    tol = 1e-12 * (1.0 + float(np.max(series)))
    assert aggregate("Min", series) <= aggregate("Avg", series) + tol
    assert aggregate("Avg", series) <= aggregate("Max", series) + tol
    assert aggregate("Min", series) <= aggregate("Med", series) + tol
    assert aggregate("Med", series) <= aggregate("Max", series) + tol


@given(count_series, st.floats(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_count_aggregate_complementarity(series, theta):
    above = aggregate("Count", series, CountPredicate(">=", theta))
    below = aggregate("Count", series, CountPredicate("<", theta))
    assert above + below == len(series)


@given(count_series, st.floats(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_retrieval_matches_count_aggregate(series, theta):
    """The Count aggregate equals the cardinality of the retrieval query."""
    engine = QueryEngine(_SeriesProvider(series))
    retrieval = engine.execute(
        parse_query(f"SELECT FRAMES WHERE COUNT(Car) >= {theta:.3f}")
    )
    count = engine.execute(
        parse_query(f"SELECT COUNT FRAMES WHERE COUNT(Car) >= {theta:.3f}")
    )
    assert retrieval.cardinality == count.value


@given(count_series, st.floats(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_retrieval_monotone_in_threshold(series, theta):
    engine = QueryEngine(_SeriesProvider(series))
    loose = engine.execute(parse_query(f"SELECT FRAMES WHERE COUNT(Car) >= {theta:.3f}"))
    strict = engine.execute(
        parse_query(f"SELECT FRAMES WHERE COUNT(Car) >= {theta + 1:.3f}")
    )
    assert strict.id_set() <= loose.id_set()


@st.composite
def object_filters(draw):
    label = draw(st.sampled_from(["Car", "Pedestrian", None]))
    has_spatial = draw(st.booleans())
    spatial = None
    if has_spatial:
        spatial = SpatialPredicate(
            draw(st.sampled_from(["<=", ">="])),
            draw(st.floats(min_value=0, max_value=75)),
        )
    confidence = draw(st.floats(min_value=0, max_value=1))
    return ObjectFilter(label=label, spatial=spatial, confidence=confidence)


@given(object_filters())
@settings(max_examples=100, deadline=None)
def test_object_filter_hash_equality_consistency(object_filter):
    clone = ObjectFilter(
        label=object_filter.label,
        spatial=object_filter.spatial,
        confidence=object_filter.confidence,
    )
    assert clone == object_filter
    assert hash(clone) == hash(object_filter)


@st.composite
def retrieval_texts(draw):
    label = draw(st.sampled_from(["Car", "Pedestrian", "Cyclist", "*"]))
    dist_op = draw(st.sampled_from(["<=", ">="]))
    dist = draw(st.integers(min_value=1, max_value=75))
    count_op = draw(st.sampled_from(["<=", ">="]))
    num = draw(st.integers(min_value=0, max_value=20))
    return (
        f"SELECT FRAMES WHERE COUNT({label} DIST {dist_op} {dist}) {count_op} {num}"
    )


@given(retrieval_texts())
@settings(max_examples=100, deadline=None)
def test_parse_describe_roundtrip(text):
    query = parse_query(text)
    assert parse_query(query.describe()) == query
