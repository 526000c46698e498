"""Unit tests for the from-scratch Hungarian implementation."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.geometry import hungarian, match_pairs, match_with_threshold, matching


def optimal_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum()


_BLOCK = [[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]]
# 20 optimal assignments; the scans' trees grow five columns deep: one
# row's augmenting path displaces four earlier rows.
_CHAIN = [
    [0, 2, 1, 0, 2, 0],
    [0, 0, 0, 0, 2, 0],
    [2, 0, 1, 0, 0, 0],
    [0, 1, 0, 1, 1, 1],
    [2, 1, 1, 0, 2, 0],
]

#: Tie-heavy matrices, each with several optimal assignments, and the one
#: the scan's first-minimum rule picks.
TIE_PINS = [
    ([[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 0]], [(0, 1), (1, 0), (2, 2), (3, 3)]),
    ([[2, 1, 1, 2, 1], [1, 1, 2, 1, 1], [1, 2, 1, 1, 2]], [(0, 1), (1, 0), (2, 2)]),
    ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [(0, 0), (1, 1), (2, 2)]),
    # tall: solved as its transpose
    ([[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0], [1, 0, 1]], [(0, 2), (1, 1), (2, 0)]),
    # 0.0 and -0.0 tie
    ([[1, -0.0, 0.0, -0.0], [-0.0, 0.0, 1, 0.0], [0.0, 1, -0.0, -0.0]], [(0, 1), (1, 0), (2, 2)]),
    # one block repeated to 60 and 68 columns
    (np.tile(_BLOCK, (1, 15)), [(0, 3), (1, 0), (2, 2), (3, 1)]),
    (np.tile(_BLOCK, (1, 17)), [(0, 3), (1, 0), (2, 2), (3, 1)]),
    # trees three or more columns deep on both sides of the cut-over: 6
    # columns, repeated to 66, and after 150 columns of ones that tie
    # with the chain's own
    (_CHAIN, [(0, 0), (1, 1), (2, 4), (3, 2), (4, 3)]),
    (np.tile(_CHAIN, (1, 11)), [(0, 0), (1, 1), (2, 4), (3, 2), (4, 3)]),
    (np.hstack([np.ones((5, 150)), _CHAIN]), [(0, 150), (1, 151), (2, 154), (3, 152), (4, 153)]),
    # tall, 32 optimal assignments, trees four columns deep
    (
        [[1, 1, 1, 1], [2, 0, 0, 2], [0, 2, 0, 1], [2, 0, 2, 0], [0, 1, 1, 2], [0, 0, 0, 2], [0, 0, 1, 0]],
        [(1, 1), (2, 2), (3, 3), (4, 0)],
    ),
]


class TestHungarian:
    def test_single_cell(self):
        assert hungarian(np.array([[3.0]])) == [(0, 0)]

    def test_square_known_answer(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        pairs = hungarian(cost)
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(5.0)

    def test_identity_preference(self):
        cost = np.eye(4) * -1 + 1  # zeros on the diagonal
        assert hungarian(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_rectangular_wide(self):
        cost = np.array([[10.0, 1.0, 10.0, 10.0], [1.0, 10.0, 10.0, 10.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(2.0)

    def test_rectangular_tall(self):
        cost = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        pairs = hungarian(cost)
        assert len(pairs) == 2
        assert sum(cost[i, j] for i, j in pairs) == pytest.approx(2.0)

    def test_a_tall_matrix_is_one_call(self, monkeypatch):
        calls = []
        solve = matching.hungarian
        monkeypatch.setattr(matching, "hungarian", lambda cost: calls.append(cost) or solve(cost))
        cost = np.array([[10.0, 1.0], [1.0, 10.0], [5.0, 5.0]])
        assert matching.hungarian(cost) == [(0, 1), (1, 0)]
        assert len(calls) == 1

    @pytest.mark.parametrize("cost, pairs", TIE_PINS)
    def test_ties_resolve_to_the_pinned_pairs(self, cost, pairs):
        cost = np.array(cost, dtype=float)
        assert hungarian(cost) == pairs
        tall = cost.shape[0] > cost.shape[1]
        oriented = cost.T if tall else cost
        n, m = oriented.shape
        for row_of in (
            matching._assign_narrow(oriented.tolist(), n, m),
            matching._assign_wide(np.ascontiguousarray(oriented), n, m),
        ):
            found = [(row, col) for col, row in enumerate(row_of) if row >= 0]
            assert sorted((col, row) if tall else (row, col) for row, col in found) == pairs

    def test_empty_matrix(self):
        assert hungarian(np.zeros((0, 3))) == []
        assert hungarian(np.zeros((3, 0))) == []

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian(np.array([[1.0, np.inf]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            hungarian(np.zeros(3))

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n, m = rng.integers(1, 12, size=2)
            cost = rng.normal(size=(n, m)) * 5
            pairs = hungarian(cost)
            assert len(pairs) == min(n, m)
            ours = sum(cost[i, j] for i, j in pairs)
            assert ours == pytest.approx(optimal_cost(cost), abs=1e-9)

    def test_each_row_and_column_used_once(self):
        rng = np.random.default_rng(3)
        cost = rng.random((6, 9))
        pairs = hungarian(cost)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)


class TestMatchWithThreshold:
    def test_threshold_drops_expensive_pairs(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 0)]
        assert unmatched_rows == [1]
        assert unmatched_cols == [1]

    def test_no_threshold_keeps_all(self):
        cost = np.array([[0.1, 9.0], [9.0, 8.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost)
        assert len(pairs) == 2
        assert unmatched_rows == []
        assert unmatched_cols == []

    def test_rectangular_unmatched_reported(self):
        cost = np.ones((2, 4))
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost)
        assert len(pairs) == 2
        assert unmatched_rows == []
        assert len(unmatched_cols) == 2

    def test_gate_accepts_non_finite_markers(self):
        # inf marks "cannot match" (e.g. label mismatch); with a gate it
        # is treated as infeasible instead of raising.
        cost = np.array([[np.inf, 0.4], [0.3, np.inf]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 1), (1, 0)]
        assert unmatched_rows == [] and unmatched_cols == []

    def test_gated_optimum_beats_drop_after_matching(self):
        # The ungated optimum pairs (0,0)/(1,1) and the gate then kills
        # (1,1); feasibility-aware matching keeps two cheap pairs.
        cost = np.array([[0.1, 0.8], [0.7, 5.0]])
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == [(0, 1), (1, 0)]
        assert unmatched_rows == [] and unmatched_cols == []

    def test_all_infeasible_matches_nothing(self):
        cost = np.full((3, 2), 9.0)
        pairs, unmatched_rows, unmatched_cols = match_with_threshold(cost, max_cost=1.0)
        assert pairs == []
        assert unmatched_rows == [0, 1, 2]
        assert unmatched_cols == [0, 1]

    def test_gated_pairs_all_pass_gate_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = rng.integers(1, 10, size=2)
            cost = rng.normal(size=(n, m)) * 3
            cost[rng.random(size=(n, m)) < 0.2] = np.inf
            pairs, unmatched_rows, unmatched_cols = match_with_threshold(
                cost, max_cost=1.5
            )
            assert all(cost[i, j] <= 1.5 for i, j in pairs)
            assert match_pairs(cost, max_cost=1.5) == pairs
            assert len(pairs) + len(unmatched_rows) == n
            assert len(pairs) + len(unmatched_cols) == m


class TestSingleRowFastPath:
    def test_first_minimum_wins_on_ties(self):
        assert hungarian(np.array([[2.0, 1.0, 1.0]])) == [(0, 1)]

    def test_single_column(self):
        assert hungarian(np.array([[3.0], [1.0], [2.0]])) == [(1, 0)]

    def test_matches_scipy_on_random_vectors(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(1, 20))
            row = rng.normal(size=(1, m))
            assert hungarian(row) == [(0, int(np.argmin(row[0])))]
            col = rng.normal(size=(m, 1))
            pairs = hungarian(col)
            assert pairs == [(int(np.argmin(col[:, 0])), 0)]
