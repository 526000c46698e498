"""``Avg`` and ``Med`` give ``np.mean`` / ``np.median``'s bytes.

The two reducers skip numpy's wrappers (``repro.query.aggregates``), so
they are pinned here by ``tobytes()``, not ``==``: ``==`` cannot tell
``-0.0`` from ``0.0``, and reading the middle element directly instead
of taking the mean of a one-element slice gives ``-0.0`` where
``np.median`` gives ``0.0``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import aggregate

REFERENCE = {"Avg": np.mean, "Med": np.median}

SERIES = {
    "length 1": [3.0],
    "length 1 negative zero": [-0.0],
    "odd": [4.0, 1.0, 9.0, 2.0, 7.0],
    "even": [4.0, 1.0, 9.0, 2.0, 7.0, 5.0],
    "even non-terminating mean": [0.1, 0.2, 0.7, 0.3],
    "integer-valued": [float(v) for v in range(40, 0, -3)],
    "integer-valued even": [2.0, 2.0, 3.0, 3.0, 3.0, 8.0, 0.0, 1.0],
    "signed zeros odd": [-0.0, 0.0, -0.0],
    "signed zeros even": [-0.0, -0.0, 0.0, -0.0],
    "negative zeros only": [-0.0, -0.0],
    "zero middles": [-1.0, -0.0, -0.0, 2.0],
    "nan": [1.0, np.nan, 3.0],
    "nan even": [np.nan, 1.0, 3.0, 2.0],
    "negative nan": [2.0, -np.nan, 1.0],
    "all nan": [np.nan, np.nan],
    "huge": [1e300, 1e300, -1e300],
    "huge even": [1e300, 1e300, 1e300, -1e300],
    "overflowing sum": [1e300] * 400,
    "infinities": [np.inf, -np.inf, 1.0, 2.0],
    "infinite middles": [-np.inf, np.inf],
}


def _bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_same_bytes(name: str, series) -> None:
    counts = np.asarray(series, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        want = REFERENCE[name](counts)
        got = aggregate(name, counts)
    assert type(got) is float
    assert _bytes(got) == _bytes(want), (name, series, got, want)


@pytest.mark.parametrize("name", sorted(REFERENCE))
@pytest.mark.parametrize("label", sorted(SERIES))
def test_named_series(name, label):
    _assert_same_bytes(name, SERIES[label])


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_seeded_signed_zero_series(name):
    """Short series over {-1, -0, 0, 1, 2, nan}: ties, signed zeros and
    NaNs at every position of the partition."""
    rng = np.random.default_rng(50)
    alphabet = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
    for _ in range(2000):
        size = int(rng.integers(1, 12))
        series = rng.choice(alphabet, size=size, p=[0.1, 0.3, 0.3, 0.1, 0.1, 0.1])
        _assert_same_bytes(name, series)


values = st.one_of(
    st.integers(min_value=-5, max_value=60).map(float),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, 1e300, -1e300, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(series=st.lists(values, min_size=1, max_size=64), name=st.sampled_from(sorted(REFERENCE)))
@settings(max_examples=300, deadline=None)
def test_any_series(series, name):
    _assert_same_bytes(name, series)
