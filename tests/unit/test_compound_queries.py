"""Unit tests for compound (AND/OR) retrieval queries."""

import numpy as np
import pytest

from repro.query import (
    CompoundRetrievalQuery,
    Condition,
    ConditionAnd,
    ConditionOr,
    CountPredicate,
    ObjectFilter,
    QueryEngine,
    QuerySyntaxError,
    RetrievalQuery,
    parse_query,
)


class LabelProvider:
    """Counts depend on the filter's label: Car = t mod 5, else t mod 3."""

    simulated_query_cost_per_frame = 0.0
    n_frames = 30

    def count_series_many(self, filters, *, start=0):
        t = np.arange(start, self.n_frames)
        return {f: (t % (5 if f.label == "Car" else 3)).astype(float) for f in filters}


def leaf(label, op, threshold):
    return Condition(ObjectFilter(label=label), CountPredicate(op, threshold))


class TestConditionNodes:
    def test_and_requires_two_children(self):
        with pytest.raises(ValueError):
            ConditionAnd((leaf("Car", ">=", 1),))

    def test_or_requires_two_children(self):
        with pytest.raises(ValueError):
            ConditionOr((leaf("Car", ">=", 1),))

    def test_describe_nested_parenthesizes(self):
        condition = ConditionOr(
            (
                ConditionAnd((leaf("Car", ">=", 3), leaf("Pedestrian", ">=", 1))),
                leaf("Truck", ">=", 1),
            )
        )
        text = condition.describe()
        assert text.startswith("(")
        assert " OR " in text

    def test_leaf_conditions_enumeration(self):
        query = CompoundRetrievalQuery(
            ConditionAnd((leaf("Car", ">=", 3), leaf("Pedestrian", ">=", 1)))
        )
        labels = [c.object_filter.label for c in query.leaf_conditions()]
        assert labels == ["Car", "Pedestrian"]


class TestEngineEvaluation:
    def setup_method(self):
        self.engine = QueryEngine(LabelProvider())

    def test_and_is_intersection(self):
        compound = CompoundRetrievalQuery(
            ConditionAnd((leaf("Car", ">=", 4), leaf("Pedestrian", ">=", 2)))
        )
        car = self.engine.execute(
            RetrievalQuery(ObjectFilter(label="Car"), CountPredicate(">=", 4))
        )
        ped = self.engine.execute(
            RetrievalQuery(ObjectFilter(label="Pedestrian"), CountPredicate(">=", 2))
        )
        result = self.engine.execute(compound)
        assert result.id_set() == car.id_set() & ped.id_set()

    def test_or_is_union(self):
        compound = CompoundRetrievalQuery(
            ConditionOr((leaf("Car", ">=", 4), leaf("Pedestrian", ">=", 2)))
        )
        car = self.engine.execute(
            RetrievalQuery(ObjectFilter(label="Car"), CountPredicate(">=", 4))
        )
        ped = self.engine.execute(
            RetrievalQuery(ObjectFilter(label="Pedestrian"), CountPredicate(">=", 2))
        )
        result = self.engine.execute(compound)
        assert result.id_set() == car.id_set() | ped.id_set()

    def test_nested_and_inside_or(self):
        compound = CompoundRetrievalQuery(
            ConditionOr(
                (
                    ConditionAnd((leaf("Car", ">=", 4), leaf("Pedestrian", ">=", 2))),
                    leaf("Car", "<=", 0),
                )
            )
        )
        result = self.engine.execute(compound)
        t = np.arange(30)
        expected = ((t % 5 >= 4) & (t % 3 >= 2)) | (t % 5 == 0)
        assert result.id_set() == set(np.nonzero(expected)[0].tolist())


class TestParserCompound:
    def test_single_condition_stays_simple(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert isinstance(query, RetrievalQuery)

    def test_and_parses_to_compound(self):
        query = parse_query(
            "SELECT FRAMES WHERE COUNT(Car) >= 3 AND COUNT(Pedestrian) >= 1"
        )
        assert isinstance(query, CompoundRetrievalQuery)
        assert isinstance(query.condition, ConditionAnd)

    def test_and_binds_tighter_than_or(self):
        query = parse_query(
            "SELECT FRAMES WHERE COUNT(Car) >= 3 AND COUNT(Pedestrian) >= 1 "
            "OR COUNT(Truck) >= 1"
        )
        assert isinstance(query.condition, ConditionOr)
        first, second = query.condition.children
        assert isinstance(first, ConditionAnd)
        assert isinstance(second, Condition)

    def test_three_way_and(self):
        query = parse_query(
            "SELECT FRAMES WHERE COUNT(Car) >= 1 AND COUNT(Pedestrian) >= 1 "
            "AND COUNT(Cyclist) >= 1"
        )
        assert len(query.condition.children) == 3

    def test_describe_roundtrip(self):
        text = (
            "SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3 "
            "AND COUNT(Pedestrian DIST <= 15) >= 1"
        )
        query = parse_query(text)
        assert parse_query(query.describe()) == query

    def test_count_aggregate_rejects_compound(self):
        with pytest.raises(QuerySyntaxError, match="single condition"):
            parse_query(
                "SELECT COUNT FRAMES WHERE COUNT(Car) >= 1 AND COUNT(Truck) >= 1"
            )

    def test_compound_with_spatial_filters(self):
        query = parse_query(
            "SELECT FRAMES WHERE COUNT(Car SECTOR -45 45) >= 2 "
            "OR COUNT(Car SECTOR 135 225) >= 2"
        )
        assert isinstance(query, CompoundRetrievalQuery)


class TestPipelineIntegration:
    def test_compound_query_through_pipeline(self, kitti_sequence, detector):
        from repro.core import MASTConfig, MASTPipeline

        pipeline = MASTPipeline(MASTConfig(seed=3)).fit(kitti_sequence, detector)
        both = pipeline.query(
            "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1 "
            "AND COUNT(Pedestrian DIST <= 20) >= 1"
        )
        cars = pipeline.query("SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 1")
        peds = pipeline.query(
            "SELECT FRAMES WHERE COUNT(Pedestrian DIST <= 20) >= 1"
        )
        assert both.id_set() == cars.id_set() & peds.id_set()
