"""Query dataclasses hash once, and the kept hash never leaves the process.

Filters and queries keep their field hash after the first ``hash()``;
the value is the one a generated dataclass ``__hash__`` returns.  String
hashes depend on ``PYTHONHASHSEED``, so pickling must drop the kept
value: an object unpickled in a ``spawn`` worker started under another
seed hashes as that worker's own parse of the text does, and finds the
cache entry that parse put.  Equality, ``dataclasses.fields`` and
``stable_digest`` do not change.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.flow import stable_digest
from repro.query import (
    AllOf,
    CountPredicate,
    ObjectFilter,
    RegionPredicate,
    SectorPredicate,
    SpatialPredicate,
    TilePredicate,
    parse_query,
)
from repro.serving.cache import CountSeriesCache

TEXT = "SELECT COUNT FRAMES WHERE COUNT(Car SECTOR -45 45 DIST >= 5) >= 1"

#: ``stable_digest`` of each text's query and object filter, before hashes were kept.
PINNED_DIGESTS = {
    "SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 2": (
        "0566ae1d6c066c95b636f060378fcd14",
        "5827879fa62b36955740506715094c4a",
    ),
    "SELECT MED OF COUNT(Pedestrian CONF 0.7)": (
        "b63397c2c52b4e2028d5f319b009048c",
        "162ab1c6127aacb88a8b24f691a38aac",
    ),
    TEXT: ("1da0a9bfdc10a2483d12fe96caa537c6", "d0c77691a412598bf8e24663b2b8fb77"),
    "SELECT AVG OF COUNT(* REGION -10 -10 10 10)": (
        "e0200fe2b1af36b22aa634176535eedd",
        "619a11dfe340c275f46d61f108a9079a",
    ),
}

HASHED = [
    SpatialPredicate("<=", 20.0),
    CountPredicate(">=", 2.0),
    SectorPredicate(-45.0, 45.0),
    RegionPredicate(-10.0, -10.0, 10.0, 10.0),
    TilePredicate("0123"),
    AllOf((SpatialPredicate(">=", 5.0), SectorPredicate(-45.0, 45.0))),
    ObjectFilter("Car", SpatialPredicate("<=", 20.0), 0.7),
    parse_query("SELECT FRAMES WHERE COUNT(Car DIST <= 20) >= 2"),
    parse_query("SELECT MED OF COUNT(Pedestrian)"),
]


def _field_hash(obj) -> int:
    """What the generated dataclass ``__hash__`` returns."""
    return hash(tuple(getattr(obj, spec.name) for spec in dataclasses.fields(obj)))


@pytest.mark.parametrize("obj", HASHED, ids=lambda obj: type(obj).__name__)
def test_the_kept_hash_is_the_field_hash_and_is_computed_once(obj):
    value = hash(obj)
    assert value == _field_hash(obj)
    assert vars(obj)["_hash"] == value
    object.__setattr__(obj, "_hash", value + 1)  # a second hash reads the kept value
    try:
        assert hash(obj) == value + 1
    finally:
        object.__setattr__(obj, "_hash", value)


@pytest.mark.parametrize("obj", HASHED, ids=lambda obj: type(obj).__name__)
def test_equality_and_fields_ignore_the_kept_hash(obj):
    fresh = pickle.loads(pickle.dumps(obj))
    hash(obj)
    assert "_hash" not in vars(fresh)
    assert fresh == obj and hash(fresh) == hash(obj)
    assert [spec.name for spec in dataclasses.fields(obj)] == [
        spec.name for spec in dataclasses.fields(fresh)
    ]
    assert "_hash" not in repr(obj)


@pytest.mark.parametrize("text", sorted(PINNED_DIGESTS))
def test_stable_digest_is_pinned(text):
    query = parse_query(text)
    hash(query)
    assert (stable_digest(query), stable_digest(query.object_filter)) == PINNED_DIGESTS[text]


def _in_child(blob: bytes) -> tuple[int, bool, bool, bool]:
    """Unpickle ``(filter, query)`` and check them against this process's parse."""
    object_filter, query = pickle.loads(blob)
    fresh = parse_query(TEXT)
    cache = CountSeriesCache()
    cache.put(("st", fresh.object_filter), np.zeros(4), 0)
    cache.remember(("st", fresh.object_filter), 0, fresh, "answer")
    series, _, answer = cache.lookup_answer(("st", object_filter), 0, query)
    return (
        hash("seeded string"),
        hash(object_filter) == hash(fresh.object_filter) and hash(query) == hash(fresh),
        series is not None,
        answer == "answer",
    )


def test_pickled_hashes_are_recomputed_under_another_hash_seed(monkeypatch):
    query = parse_query(TEXT)
    hash(query)
    blob = pickle.dumps((query.object_filter, query))
    assert b"_hash" not in blob
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        seeded, same_hash, series_hit, answer_hit = pool.apply(_in_child, (blob,))
    assert seeded != hash("seeded string"), "the child must run under another hash seed"
    assert same_hash and series_hit and answer_hit
