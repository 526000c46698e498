"""Aggregate operators over per-frame counts (paper §2.1).

The paper evaluates five operators; each maps the per-frame count series
``n_t`` (objects satisfying the query's object filter in frame ``t``) to
one number:

* ``Avg`` — average of ``n_t`` over all frames;
* ``Med`` — median of ``n_t``;
* ``Min`` / ``Max`` — global extrema of ``n_t``;
* ``Count`` — number of frames whose ``n_t`` satisfies the semantic
  predicate (the cardinality of the equivalent retrieval query).

"Other aggregate predicates can be supported with minimal effort by
adding new operators" — :func:`register_aggregate` is that extension
point (exercised in the test suite with ``Sum`` and percentiles).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.query.predicates import CountPredicate

__all__ = [
    "AGGREGATE_OPERATORS",
    "aggregate",
    "register_aggregate",
    "available_aggregates",
    "requires_count_predicate",
]

AggregateFn = Callable[[np.ndarray, CountPredicate | None], float]


# ``Avg`` and ``Med`` run numpy's own arithmetic without the ``np.mean`` /
# ``np.median`` wrappers, whose fixed cost is most of a short series'
# answer, and give their bytes: ``np.mean`` is ``add.reduce`` over the
# count, and ``np.median`` is one ``partition`` at the middle index or
# indices plus ``-1`` (NaNs sort last), then the mean of the middle
# slice, or the last element if it is NaN.  Taking the mean of a
# one-element slice, not the element, is what turns ``-0.0`` into
# ``0.0`` as ``np.median`` does (``tests/unit/test_aggregate_bytes.py``).
def _avg(counts: np.ndarray, _pred: CountPredicate | None) -> float:
    return float(np.add.reduce(counts) / counts.size)


def _med(counts: np.ndarray, _pred: CountPredicate | None) -> float:
    n = counts.size
    half = n // 2
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    part = np.partition(counts, kth)
    last = part[-1]
    if last != last:
        return float(last)
    middle = part[half - 1 + n % 2 : half + 1]
    return float(np.add.reduce(middle) / middle.size)


def _min(counts: np.ndarray, _pred: CountPredicate | None) -> float:
    return float(np.min(counts))


def _max(counts: np.ndarray, _pred: CountPredicate | None) -> float:
    return float(np.max(counts))


def _count(counts: np.ndarray, pred: CountPredicate | None) -> float:
    if pred is None:
        raise ValueError("the Count aggregate requires a count predicate")
    return float(np.count_nonzero(pred.mask(counts)))


AGGREGATE_OPERATORS: dict[str, AggregateFn] = {
    "Avg": _avg,
    "Med": _med,
    "Min": _min,
    "Max": _max,
    "Count": _count,
}

_NEEDS_PREDICATE = {"Count"}


def register_aggregate(
    name: str,
    fn: AggregateFn,
    *,
    needs_count_predicate: bool = False,
    overwrite: bool = False,
) -> None:
    """Add a new aggregate operator (paper §2.1 extensibility claim)."""
    if name in AGGREGATE_OPERATORS and not overwrite:
        raise ValueError(f"aggregate {name!r} is already registered")
    AGGREGATE_OPERATORS[name] = fn
    if needs_count_predicate:
        _NEEDS_PREDICATE.add(name)
    else:
        _NEEDS_PREDICATE.discard(name)


def requires_count_predicate(name: str) -> bool:
    """Whether operator ``name`` needs a semantic (count) predicate."""
    return name in _NEEDS_PREDICATE


def available_aggregates() -> list[str]:
    """Registered operator names, sorted."""
    return sorted(AGGREGATE_OPERATORS)


def aggregate(
    name: str, counts: np.ndarray, count_predicate: CountPredicate | None = None
) -> float:
    """Apply operator ``name`` to a per-frame count series."""
    if name not in AGGREGATE_OPERATORS:
        raise ValueError(
            f"unknown aggregate {name!r}; options: {available_aggregates()}"
        )
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("cannot aggregate an empty count series")
    return AGGREGATE_OPERATORS[name](counts, count_predicate)
