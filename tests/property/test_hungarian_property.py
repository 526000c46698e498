"""Property-based tests for the Hungarian implementation."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from repro.geometry import hungarian, match_pairs, match_with_threshold, matching

cost_matrices = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 8).flatmap(
        lambda m: arrays(
            dtype=float,
            shape=(n, m),
            elements=st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
        )
    )
)
# Shapes on both sides of the scan cut-over.  The entries come from a
# seeded numpy generator: drawing thousands of floats through hypothesis
# would spend the example budget on generation.
CUT = matching.WIDE_SCAN_MIN_COLUMNS
shapes_and_seeds = st.tuples(
    st.integers(1, CUT + 16), st.integers(1, CUT + 16), st.integers(0, 2**32 - 1)
)


def scipy_pairs(cost):
    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def euclidean_costs(n, m, seed):
    """Centre distances of ``n`` boxes to ``m`` boxes, most of them moved copies."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-300.0, 300.0, size=(n, 2))
    end = rng.uniform(-300.0, 300.0, size=(m, 2))
    moved = min(n, m) - min(n, m) // 10
    end[rng.permutation(m)[:moved]] = start[:moved] + rng.normal(0.0, 25.0, size=(moved, 2))
    return np.linalg.norm(start[:, None, :] - end[None, :, :], axis=2)


@given(shapes_and_seeds)
@settings(max_examples=120, deadline=None)
def test_pairs_equal_scipy_on_continuous_costs(case):
    """A continuous cost matrix has one optimum, so the pairs themselves agree."""
    n, m, seed = case
    cost = np.random.default_rng(seed).uniform(-100.0, 100.0, size=(n, m))
    assert hungarian(cost) == scipy_pairs(cost)


@given(shapes_and_seeds, st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_total_equals_scipy_on_tie_heavy_integer_costs(case, top):
    """Integer costs from a tiny range tie everywhere; the totals are exact."""
    n, m, seed = case
    cost = np.random.default_rng(seed).integers(0, top + 1, size=(n, m)).astype(float)
    pairs = hungarian(cost)
    rows, cols = zip(*pairs)
    assert len(set(rows)) == len(set(cols)) == min(n, m)
    assert sum(cost[i, j] for i, j in pairs) == sum(cost[i, j] for i, j in scipy_pairs(cost))


@given(shapes_and_seeds, st.booleans())
@settings(max_examples=80, deadline=None)
def test_layouts_agree(case, integer_costs):
    """Strided, Fortran-ordered and nested-list inputs: one answer; the
    transpose mirrors it (among tied optima, at the same total)."""
    n, m, seed = case
    rng = np.random.default_rng(seed)
    if integer_costs:
        cost = rng.integers(0, 4, size=(n, m)).astype(float)
    else:
        cost = rng.uniform(0.0, 50.0, size=(n, m))
    expected = hungarian(cost)
    mirrored = sorted((i, j) for j, i in hungarian(cost.T))
    if integer_costs:
        assert sum(cost[i, j] for i, j in mirrored) == sum(cost[i, j] for i, j in expected)
    else:
        assert mirrored == expected
    assert hungarian(np.asfortranarray(cost)) == expected
    strided = np.repeat(np.repeat(cost, 2, axis=0), 3, axis=1)[::2, ::3]
    assert hungarian(strided) == expected
    assert hungarian(cost.tolist()) == expected


@given(st.integers(2, 40), st.integers(0, 40), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=120, deadline=None)
def test_both_scans_return_the_same_assignment(n, extra, seed, integer_costs):
    """The width constant chooses a speed, never an answer — ties included."""
    m = n + extra
    rng = np.random.default_rng(seed)
    if integer_costs:
        cost = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        cost = euclidean_costs(n, m, seed)
    assert matching._assign_narrow(cost.tolist(), n, m) == matching._assign_wide(cost, n, m)


def test_city_scale_euclidean_instances_equal_scipy():
    """The city regime: a few 150-250-wide rectangular distance matrices."""
    for seed, (n, m) in enumerate([(183, 185), (203, 192), (150, 250), (241, 160)]):
        cost = euclidean_costs(n, m, seed)
        pairs = hungarian(cost)
        assert pairs == scipy_pairs(cost)
        assert sorted((i, j) for j, i in hungarian(cost.T)) == pairs


@given(cost_matrices)
@settings(max_examples=150, deadline=None)
def test_optimal_total_cost_matches_scipy(cost):
    pairs = hungarian(cost)
    ours = sum(cost[i, j] for i, j in pairs)
    rows, cols = linear_sum_assignment(cost)
    assert abs(ours - cost[rows, cols].sum()) < 1e-7


@given(cost_matrices)
@settings(max_examples=150, deadline=None)
def test_assignment_is_a_matching(cost):
    pairs = hungarian(cost)
    assert len(pairs) == min(cost.shape)
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    assert len(set(rows)) == len(rows)
    assert len(set(cols)) == len(cols)
    assert all(0 <= i < cost.shape[0] and 0 <= j < cost.shape[1] for i, j in pairs)


@given(cost_matrices)
@settings(max_examples=100, deadline=None)
def test_transpose_symmetry(cost):
    """Matching the transpose gives the mirrored assignment cost."""
    ours = sum(cost[i, j] for i, j in hungarian(cost))
    mirrored = sum(cost.T[i, j] for i, j in hungarian(cost.T))
    assert abs(ours - mirrored) < 1e-7


@given(cost_matrices, st.floats(min_value=-50, max_value=50))
@settings(max_examples=100, deadline=None)
def test_constant_shift_invariance_square(cost, shift):
    """Adding a constant to a square matrix does not change the assignment cost
    structure (total shifts by n * shift)."""
    n = min(cost.shape)
    square = cost[:n, :n]
    base = sum(square[i, j] for i, j in hungarian(square))
    shifted = sum((square + shift)[i, j] for i, j in hungarian(square + shift))
    assert abs(shifted - (base + n * shift)) < 1e-6


@given(cost_matrices, st.floats(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_threshold_gating_consistency(cost, max_cost):
    pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost)
    for i, j in pairs:
        assert cost[i, j] <= max_cost
    all_rows = {i for i, _ in pairs} | set(unmatched_rows)
    all_cols = {j for _, j in pairs} | set(unmatched_cols)
    assert all_rows == set(range(cost.shape[0]))
    assert all_cols == set(range(cost.shape[1]))


# ----------------------------------------------------------------------
# Gated assignment.  The spec: among matchings that use only feasible
# entries (finite and within the gate), the most pairs, then the least
# total cost.  (Dropping the above-gate pairs of an ungated optimum is
# not it: that can leave fewer pairs than a gated matching has.)
# ----------------------------------------------------------------------
def gated_costs(n, m, seed):
    """Costs with ties, an infinite "cannot match" entry or two, and a gate
    that leaves some rows without a partner."""
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        cost = rng.integers(0, 6, size=(n, m)).astype(float)
    else:
        cost = rng.uniform(0.0, 50.0, size=(n, m))
    cost[rng.random((n, m)) < 0.1] = np.inf
    return cost, float(rng.uniform(0.0, 1.1) * 50.0)


def brute_force_gated(cost, gate):
    """``(pairs, total)`` of the spec's optimum, by enumeration."""
    n, m = cost.shape
    feasible = np.isfinite(cost) & (cost <= gate)
    best = (0, 0.0)
    for k in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                if all(feasible[i, j] for i, j in zip(rows, cols)):
                    total = sum(cost[i, j] for i, j in zip(rows, cols))
                    if best[0] < k or total < best[1]:
                        best = (k, total)
    return best


def assert_gated_matching(pairs, cost, gate):
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    assert all(np.isfinite(cost[i, j]) and cost[i, j] <= gate for i, j in pairs)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_gated_pairs_equal_the_spec_by_enumeration(n, m, seed):
    cost, gate = gated_costs(n, m, seed)
    pairs = match_pairs(cost, gate)
    assert_gated_matching(pairs, cost, gate)
    count, total = brute_force_gated(cost, gate)
    assert len(pairs) == count
    assert abs(sum(cost[i, j] for i, j in pairs) - total) < 1e-9


@given(shapes_and_seeds)
@settings(max_examples=120, deadline=None)
def test_gated_pairs_equal_scipy_where_a_full_matching_exists(case):
    """Larger matrices: scipy on the gated costs (infeasible entries
    ``+inf``) is the reference wherever it finds a full matching."""
    n, m, seed = case
    cost = euclidean_costs(n, m, seed)
    gate = float(np.quantile(cost, 0.6))
    gated = np.where(cost <= gate, cost, np.inf)
    try:
        want = scipy_pairs(gated)
    except ValueError:  # no full matching under the gate
        return
    pairs = match_pairs(cost, gate)
    assert_gated_matching(pairs, cost, gate)
    assert len(pairs) == len(want) == min(n, m)
    assert abs(sum(cost[i, j] for i, j in pairs) - sum(cost[i, j] for i, j in want)) < 1e-7
