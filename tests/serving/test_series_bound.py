"""``max_cache_entries`` bounds the count series and answers a served shard keeps.

Providers compute and keep nothing, so once the cache is full, serving
more distinct filters — or more distinct count predicates over one
filter, each a memoized answer — leaves the number of arrays reachable
from the service (its cache, pipeline, index and providers) where it was.
"""

from __future__ import annotations

import gc
import types

import numpy as np
import pytest

from repro.query import parse_query
from repro.serving import QueryService

MAX_ENTRIES = 8

#: Code, not data: walking into these reaches the whole interpreter.
_OPAQUE = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _reachable_arrays(root) -> int:
    """How many distinct ndarrays ``root`` keeps alive through data references."""
    seen: set[int] = set()
    stack = [root]
    n_arrays = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            n_arrays += 1
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return n_arrays


def _filters(n: int) -> list[str]:
    """``n`` distinct object filters: distance cuts and tile-routed regions."""
    return [
        f"Car DIST <= {5 + 0.25 * i}" if i % 2 else f"Car REGION -30 -30 30 {0.5 * i}"
        for i in range(n)
    ]


def _predicates(n: int) -> list[str]:
    """``n`` distinct count predicates: four operators times ``n / 4`` thresholds."""
    return [f"{('>=', '<=', '>', '<')[i % 4]} {i // 4}" for i in range(n)]


#: Input name -> ``4 * MAX_ENTRIES`` query texts.
INPUTS = {
    "st": [f"SELECT FRAMES WHERE COUNT({f}) >= 1" for f in _filters(4 * MAX_ENTRIES)],
    "linear": [f"SELECT AVG OF COUNT({f})" for f in _filters(4 * MAX_ENTRIES)],
    "predicates": [
        f"SELECT FRAMES WHERE COUNT(Car DIST <= 20) {p}" for p in _predicates(4 * MAX_ENTRIES)
    ],
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_distinct_filters_grow_nothing_but_the_bounded_cache(kitti_pipeline, name):
    queries = [parse_query(text) for text in INPUTS[name]]
    assert len(set(queries)) == 4 * MAX_ENTRIES
    n_filters = len({query.object_filter for query in queries})
    quarters = [queries[i : i + MAX_ENTRIES] for i in range(0, len(queries), MAX_ENTRIES)]
    service = QueryService(kitti_pipeline, max_cache_entries=MAX_ENTRIES)

    empty = _reachable_arrays(service)
    service.execute_batch(quarters[0])
    # An answer is admitted on its series' second request, so the cache
    # holds as many answers as it can only after the second quarter.
    service.execute_batch(quarters[1])
    full = _reachable_arrays(service)
    entries = min(n_filters, MAX_ENTRIES)
    assert len(service.cache) == entries
    # The cache's entries, plus the tile index the first region query built.
    assert full >= empty + entries

    for query in quarters[2]:
        service.execute(query)
    for start in range(0, MAX_ENTRIES, 4):
        service.execute_batch(quarters[3][start : start + 4])

    stats = service.cache_stats()
    assert stats.misses == n_filters
    assert stats.evictions == n_filters - entries
    assert stats.entries == entries
    assert _reachable_arrays(service) == full
