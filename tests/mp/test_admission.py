"""Admission control: bounded in-flight computations, explicit shed."""

from __future__ import annotations

import asyncio
import contextlib
import time

import pytest

from repro.query import parse_scoped_query
from repro.serving.dispatcher import Dispatcher, Overloaded


@contextlib.contextmanager
def inflight_limit(dispatcher, limit: int):
    """Temporarily pinch the admission bound (read on the loop thread).

    Waits out computations an earlier test left in flight first (a shed
    raises while the admitted query is still computing), so the bound
    only ever counts this test's own submissions.
    """
    deadline = time.monotonic() + 10.0
    while dispatcher.counters()["inflight"] and time.monotonic() < deadline:
        time.sleep(0.005)
    original = dispatcher._max_inflight
    dispatcher._max_inflight = limit
    try:
        yield
    finally:
        dispatcher._max_inflight = original


def loop_submit(dispatcher, scoped_list):
    return asyncio.run_coroutine_threadsafe(
        dispatcher._answer_many(scoped_list), dispatcher._loop
    ).result()


def test_constructor_validates_bounds(mp_service):
    with pytest.raises(ValueError, match="max_inflight"):
        Dispatcher(mp_service.pool, max_inflight=0)
    with pytest.raises(ValueError, match="max_batch"):
        Dispatcher(mp_service.pool, max_batch=0)


def test_second_distinct_query_is_shed(mp_service):
    """Both submissions land on the loop before any batch can drain, so
    with the bound at 1 the second *distinct* query must shed."""
    names = mp_service.names
    first = parse_scoped_query(
        f"SELECT AVG OF COUNT(Car DIST <= 7) IN SEQUENCE {names[0]}"
    )
    second = parse_scoped_query(
        f"SELECT AVG OF COUNT(Truck DIST <= 9) IN SEQUENCE {names[1]}"
    )
    shed = mp_service.dispatcher.counters()["shed"]
    with inflight_limit(mp_service.dispatcher, 1):
        with pytest.raises(Overloaded) as info:
            loop_submit(mp_service.dispatcher, [first, second])
    assert info.value.max_inflight == 1
    assert "overloaded" in str(info.value)
    assert mp_service.dispatcher.counters()["shed"] == shed + 1


def test_coalesced_joiners_bypass_admission(mp_service):
    """Joiners add no computation, so they never count against the
    bound: eight copies of one query fit through a limit of one."""
    name = mp_service.names[0]
    scoped = parse_scoped_query(
        f"SELECT AVG OF COUNT(Cyclist DIST <= 11) IN SEQUENCE {name}"
    )
    with inflight_limit(mp_service.dispatcher, 1):
        results = loop_submit(mp_service.dispatcher, [scoped] * 8)
    assert all(result is results[0] for result in results)


def test_shed_leaves_the_tier_serviceable(mp_service):
    """A shed is a response, not a failure mode: the admitted query's
    computation completes and later requests are unaffected."""
    name = mp_service.names[0]
    text = f"SELECT AVG OF COUNT(Car DIST <= 7) IN SEQUENCE {name}"
    result = mp_service.execute(text)
    assert result.value == mp_service.execute(text).value
    counters = mp_service.dispatcher.counters()
    assert counters["inflight"] == 0
