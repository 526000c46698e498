"""The tree's one parse memo, behind ``parse_query`` / ``parse_scoped_query``."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.query import parser as parser_module
from repro.query import register_spatial_operator
from repro.query.parser import QuerySyntaxError, parse_query, parse_scoped_query

TEXT = "SELECT FRAMES WHERE COUNT(Car DIST <= 12.5) >= 2"


@pytest.fixture()
def parses(monkeypatch):
    """Texts handed to ``_Parser.__init__`` (real parses, not memo hits)."""
    parser_module._parse.cache_clear()
    seen: list[str] = []
    original = parser_module._Parser.__init__

    def counting(self, text):
        seen.append(text)
        original(self, text)

    monkeypatch.setattr(parser_module._Parser, "__init__", counting)
    return seen


def test_same_text_parses_once_and_shares_the_frozen_tree(parses):
    first = parse_query(TEXT)
    second = parse_query(TEXT)
    assert parses == [TEXT]
    assert second is first
    with pytest.raises(AttributeError):  # frozen: safe to share
        first.count_predicate = None
    scoped = parse_scoped_query(f"{TEXT} IN SEQUENCE city-00")
    assert parse_scoped_query(f"{TEXT} IN SEQUENCE city-00") is scoped
    assert len(parses) == 2


def test_validation_runs_before_the_lookup(parses):
    for bad in ("", "   ", None, 7, ["SELECT"]):  # the list is unhashable
        with pytest.raises(QuerySyntaxError, match="non-empty string"):
            parse_query(bad)
        with pytest.raises(QuerySyntaxError, match="non-empty string"):
            parse_scoped_query(bad)
    assert parses == []


def test_a_syntax_error_is_never_memoized(parses):
    for _ in range(2):
        with pytest.raises(QuerySyntaxError):
            parse_query("SELECT NONSENSE")
    assert parses == ["SELECT NONSENSE"] * 2
    assert parser_module._parse.cache_info().currsize == 0


def test_scoped_and_unscoped_entry_points_keep_separate_entries(parses):
    text = f"{TEXT} IN SEQUENCE city-00"
    assert parse_scoped_query(text).sequence == "city-00"
    with pytest.raises(QuerySyntaxError, match="trailing"):
        parse_query(text)
    # And the other way round: one text, two trees.
    assert parse_query(TEXT) is not parse_scoped_query(TEXT)
    assert parse_scoped_query(TEXT).query == parse_query(TEXT)


def test_eviction_is_bounded_lru_not_a_wholesale_clear(parses):
    info = parser_module._parse.cache_info()
    assert info.maxsize is not None and info.maxsize >= 4096
    hot = parse_query(TEXT)
    for k in range(info.maxsize - 1):
        parse_query(f"SELECT AVG OF COUNT(Car DIST <= {k})")
    assert parse_query(TEXT) is hot  # refreshed: now the most recent entry
    parse_query("SELECT AVG OF COUNT(Pedestrian)")  # evicts the oldest only
    assert parser_module._parse.cache_info().currsize == info.maxsize
    del parses[:]
    assert parse_query(TEXT) is hot
    parse_query(f"SELECT AVG OF COUNT(Car DIST <= {info.maxsize - 2})")
    assert parses == []
    parse_query("SELECT AVG OF COUNT(Car DIST <= 0)")  # the evicted one
    assert parses == ["SELECT AVG OF COUNT(Car DIST <= 0)"]


def test_replacing_a_spatial_operator_retires_its_memoized_trees(parses):
    @dataclass(frozen=True)
    class Aura:
        radius: float

        def mask_positions(self, positions):  # pragma: no cover - not evaluated
            raise NotImplementedError

        def describe(self) -> str:
            return f"aura {self.radius:g}"

    @dataclass(frozen=True)
    class WideAura(Aura):
        pass

    text = "SELECT AVG OF COUNT(Car AURA 5)"
    register_spatial_operator("AURA", 1, Aura, overwrite=True)
    assert type(parse_query(text).object_filter.spatial) is Aura
    register_spatial_operator("AURA", 1, WideAura, overwrite=True)
    assert type(parse_query(text).object_filter.spatial) is WideAura
