"""Unit tests for the query-language parser."""

import pytest

from repro.query import (
    AggregateQuery,
    QuerySyntaxError,
    RetrievalQuery,
    parse_query,
    parse_scoped_query,
)


class TestRetrievalParsing:
    def test_basic(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car DIST <= 10) >= 3")
        assert isinstance(query, RetrievalQuery)
        assert query.object_filter.label == "Car"
        assert query.object_filter.spatial.op == "<="
        assert query.object_filter.spatial.threshold == 10.0
        assert query.count_predicate.op == ">="
        assert query.count_predicate.threshold == 3.0

    def test_case_insensitive_keywords(self):
        query = parse_query("select frames where count(Car dist >= 5) <= 2")
        assert isinstance(query, RetrievalQuery)
        assert query.object_filter.label == "Car"

    def test_label_case_preserved(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(pedestrian) >= 1")
        assert query.object_filter.label == "pedestrian"

    def test_wildcard_label(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(*) >= 1")
        assert query.object_filter.label is None

    def test_no_spatial_predicate(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car) >= 1")
        assert query.object_filter.spatial is None

    def test_confidence_override(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car CONF 0.7) >= 1")
        assert query.object_filter.confidence == pytest.approx(0.7)

    def test_float_thresholds(self):
        query = parse_query("SELECT FRAMES WHERE COUNT(Car DIST <= 12.5) >= 2")
        assert query.object_filter.spatial.threshold == pytest.approx(12.5)


class TestAggregateParsing:
    @pytest.mark.parametrize("operator", ["AVG", "MED", "MIN", "MAX"])
    def test_simple_operators(self, operator):
        query = parse_query(f"SELECT {operator} OF COUNT(Car DIST <= 10)")
        assert isinstance(query, AggregateQuery)
        assert query.operator.lower() == operator.lower()
        assert query.count_predicate is None

    def test_count_aggregate(self):
        query = parse_query("SELECT COUNT FRAMES WHERE COUNT(Car DIST <= 10) >= 3")
        assert isinstance(query, AggregateQuery)
        assert query.operator == "Count"
        assert query.count_predicate.threshold == 3.0

    def test_describe_roundtrip(self):
        text = "SELECT FRAMES WHERE COUNT(Car dist <= 10) >= 3"
        query = parse_query(text)
        assert parse_query(query.describe()) == query

    def test_aggregate_describe_roundtrip(self):
        query = parse_query("SELECT AVG OF COUNT(* DIST >= 5)")
        assert parse_query(query.describe()) == query


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "FRAMES WHERE COUNT(Car) >= 1",
            "SELECT FRAMES COUNT(Car) >= 3",
            "SELECT FRAMES WHERE COUNT(Car >= 3",
            "SELECT FRAMES WHERE COUNT(Car) >= ",
            "SELECT FRAMES WHERE COUNT(Car) >= 3 trailing",
            "SELECT BOGUS OF COUNT(Car)",
            "SELECT AVG COUNT(Car)",
            "SELECT FRAMES WHERE COUNT(Car DIST 10) >= 3",
            "SELECT FRAMES WHERE COUNT(Car) ?? 3",
            "SELECT COUNT OF COUNT(Car)",
        ],
    )
    def test_malformed_queries(self, bad):
        with pytest.raises(QuerySyntaxError):
            parse_query(bad)

    def test_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_query("nope")

    def test_error_mentions_position(self):
        with pytest.raises(QuerySyntaxError, match="position"):
            parse_query("SELECT FRAMES WHERE COUNT(Car) @@ 3")


#: Malformed text -> the exact message, position included.  The lexer
#: and the grammar may be rewritten; what a user reads may not move.
ERROR_MESSAGES = [
    (
        "SELECT FRAMES WHERE COUNT(Car $) >= 1",
        "unexpected character '$' at position 30",
    ),
    (
        "  SELECT  FRAMES\tWHERE COUNT(Car) >= 1 @",
        "unexpected character '@' at position 39",
    ),
    (
        "SELECT MED OF\nCOUNT(Car) ;\n",
        "unexpected character ';' at position 25",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car) >= 1 extra",
        "unexpected trailing input 'extra' at position 36",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE x",
        "unexpected trailing input 'IN' at position 36",
    ),
    (
        "SELECT FRAMES COUNT(Car) >= 1",
        "expected 'WHERE' at position 14, got 'COUNT'",
    ),
    ("SELECT AVG COUNT(Car)", "expected 'OF' at position 11, got 'COUNT'"),
    (
        "SELECT FRAMES WHERE COUNT(Car",
        "unexpected end of query: 'SELECT FRAMES WHERE COUNT(Car'",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car TILE 0241) >= 1",
        "tile path must be a non-empty string of quadrant digits 0-3, "
        "got '0241' (at position 35)",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car) 3",
        "expected a comparison operator at position 31, got '3'",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car DIST 10) >= 1",
        "expected a comparison operator at position 35, got '10'",
    ),
    (
        "SELECT FRAMES WHERE COUNT(5) >= 1",
        "expected a label or '*' at position 26, got '5'",
    ),
    (
        "SELECT MED OF COUNT(*) WITHIN REGION (1, 2, 3)",
        "expected a number at position 45, got ')'",
    ),
]

SCOPED_ERROR_MESSAGES = [
    (
        "SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE ''",
        "empty sequence name at position 48",
    ),
    (
        "SELECT FRAMES WHERE COUNT(Car) >= 1 IN SEQUENCE 7",
        "expected a sequence name at position 48, got '7'",
    ),
]


class TestErrorMessages:
    @pytest.mark.parametrize("text, message", ERROR_MESSAGES)
    def test_message_is_pinned(self, text, message):
        with pytest.raises(QuerySyntaxError) as raised:
            parse_query(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize("text, message", SCOPED_ERROR_MESSAGES)
    def test_scoped_message_is_pinned(self, text, message):
        with pytest.raises(QuerySyntaxError) as raised:
            parse_scoped_query(text)
        assert str(raised.value) == message

    def test_whitespace_around_tokens_is_skipped(self):
        text = "SELECT MED OF COUNT(Car REGION -1 -2 3 4)"
        spaced = "\t " + text.replace(" ", " \n\t").replace("(", " ( ") + " \r\n"
        assert parse_query(spaced) == parse_query(text)
