"""Unit tests for ST-PC analysis (paper Alg. 1)."""

import numpy as np
import pytest

from repro.core import analyze_pair, match_by_label
from repro.data import ObjectArray


def scene(positions, labels=None, scores=None):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    centers = np.column_stack([positions, np.zeros(n)]) if positions.shape[1] == 2 else positions
    return ObjectArray(
        labels=np.asarray(labels if labels is not None else ["Car"] * n),
        centers=centers,
        sizes=np.ones((n, 3)),
        yaws=np.zeros(n),
        scores=np.asarray(scores if scores is not None else [0.9] * n, dtype=float),
    )


class TestMatchByLabel:
    def test_matches_nearest_same_label(self):
        a = scene([[0, 0], [10, 0]])
        b = scene([[10.5, 0], [0.5, 0]])
        pairs, unmatched_a, unmatched_b = match_by_label(a, b)
        assert pairs == [(0, 1), (1, 0)]
        assert unmatched_a == [] and unmatched_b == []

    def test_labels_never_cross(self):
        a = scene([[0, 0]], labels=["Car"])
        b = scene([[0.1, 0]], labels=["Pedestrian"])
        pairs, unmatched_a, unmatched_b = match_by_label(a, b)
        assert pairs == []
        assert unmatched_a == [0] and unmatched_b == [0]

    def test_gating_threshold(self):
        a = scene([[0, 0]])
        b = scene([[50, 0]])
        pairs, unmatched_a, unmatched_b = match_by_label(a, b, max_distance=10.0)
        assert pairs == []
        assert unmatched_a == [0] and unmatched_b == [0]

    def test_unbalanced_counts(self):
        a = scene([[0, 0], [5, 0], [10, 0]])
        b = scene([[0.2, 0]])
        pairs, unmatched_a, unmatched_b = match_by_label(a, b)
        assert pairs == [(0, 0)]
        assert unmatched_a == [1, 2]

    def test_interleaved_labels_report_global_indices(self):
        a = scene(
            [[0, 0], [0, 1], [20, 0], [40, 0]],
            labels=["Car", "Pedestrian", "Car", "Cyclist"],
        )
        b = scene(
            [[20.5, 0], [0, 1.2], [90, 0], [0.3, 0]],
            labels=["Car", "Pedestrian", "Pedestrian", "Car"],
        )
        pairs, unmatched_a, unmatched_b = match_by_label(a, b)
        assert pairs == [(0, 3), (1, 1), (2, 0)]
        assert unmatched_a == [3] and unmatched_b == [2]
        flat = [k for pair in pairs for k in pair] + unmatched_a + unmatched_b
        assert all(type(k) is int for k in flat)

    def test_empty_sides(self):
        empty = ObjectArray.empty()
        pairs, unmatched_a, unmatched_b = match_by_label(empty, scene([[0, 0]]))
        assert pairs == [] and unmatched_a == [] and unmatched_b == [0]

    @pytest.mark.parametrize("other_label", [False, True], ids=["alone", "in-a-run"])
    def test_tied_minima_take_the_first_column(self, other_label):
        """A row whose two columns cost the same takes the first, as
        ``hungarian`` does: on a label block alone in its cost run, and on
        one that shares its run with another label's block."""
        if other_label:
            a = scene([[0, 0], [5, 5]], labels=["Car", "Pedestrian"])
            b = scene([[1, 0], [-1, 0], [5, 6]], labels=["Car", "Car", "Pedestrian"])
        else:
            a, b = scene([[0, 0]]), scene([[1, 0], [-1, 0]])
        pairs, _, unmatched_b = match_by_label(a, b)
        assert pairs == ([(0, 0), (1, 2)] if other_label else [(0, 0)])
        assert unmatched_b == [1]


class TestAnalyzePair:
    def test_velocity_of_matched_object(self):
        a = scene([[0, 0]])
        b = scene([[2, 1]])
        estimate = analyze_pair(a, b, 0.0, 2.0)
        assert np.allclose(estimate.velocities[0], [1.0, 0.5])
        assert estimate.matched_pairs == ((0, 0),)

    def test_unmatched_boxes_have_zero_velocity(self):
        a = scene([[0, 0], [30, 30]], labels=["Car", "Pedestrian"])
        b = scene([[1, 0]], labels=["Car"])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        assert np.allclose(estimate.velocities[1], [0.0, 0.0])
        assert estimate.disappearing == (1,)

    def test_appearing_boxes_listed(self):
        a = scene([[0, 0]])
        b = scene([[0.5, 0], [40, 0]])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        assert estimate.appearing == (1,)

    def test_requires_time_order(self):
        with pytest.raises(ValueError, match="t_end"):
            analyze_pair(scene([[0, 0]]), scene([[1, 0]]), 1.0, 1.0)


class TestEstimateIdentity:
    """Estimates are shared between callers, so they compare and hash by
    identity; a generated field-wise ``==`` would compare ndarray fields."""

    def test_equal_content_is_not_equal_and_does_not_raise(self):
        a = scene([[0, 0], [30, 30]], labels=["Car", "Pedestrian"])
        b = scene([[1, 0]], labels=["Car"])
        first = analyze_pair(a, b, 0.0, 1.0)
        second = analyze_pair(a, b, 0.0, 1.0)
        assert first == first
        assert first != second
        assert (first == second) is False

    def test_hashable_as_dict_key_and_set_member(self):
        a, b = scene([[0, 0]]), scene([[2, 1]])
        first = analyze_pair(a, b, 0.0, 2.0)
        second = analyze_pair(a, b, 0.0, 2.0)
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2
        assert {first: "kept"}[first] == "kept"


class TestPredict:
    def test_matched_object_interpolates(self):
        estimate = analyze_pair(scene([[0, 0]]), scene([[10, 0]]), 0.0, 1.0)
        predicted = estimate.predict(0.5)
        assert len(predicted) == 1
        assert np.allclose(predicted.centers[0, :2], [5.0, 0.0])
        assert predicted.scores[0] == pytest.approx(0.9)

    def test_disappearing_confidence_decays(self):
        """Paper Example 5.2: the unmatched t1 box fades as t -> t2."""
        a = scene([[0, 0], [30, 0]], scores=[0.9, 0.8])
        b = scene([[1, 0]])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        early = estimate.predict(0.1)
        late = estimate.predict(0.9)
        # The ghost is the box at x=30.
        ghost_early = early.scores[np.argmax(early.centers[:, 0])]
        ghost_late = late.scores[np.argmax(late.centers[:, 0])]
        assert ghost_early == pytest.approx(0.8 * 0.9)
        assert ghost_late == pytest.approx(0.8 * 0.1)
        assert ghost_early > ghost_late

    def test_appearing_confidence_grows(self):
        a = scene([[0, 0]])
        b = scene([[0.5, 0], [40, 0]], scores=[0.9, 0.8])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        early = estimate.predict(0.1)
        late = estimate.predict(0.9)
        newcomer_early = early.scores[np.argmax(early.centers[:, 0])]
        newcomer_late = late.scores[np.argmax(late.centers[:, 0])]
        assert newcomer_early == pytest.approx(0.8 * 0.1)
        assert newcomer_late == pytest.approx(0.8 * 0.9)

    def test_confidence_threshold_behaviour(self):
        """Near the midpoint a 1.0-score ghost sits at the 0.5 default cut."""
        a = scene([[0, 0], [30, 0]], scores=[1.0, 1.0])
        b = scene([[1, 0]])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        predicted = estimate.predict(0.4)
        confident = predicted.filter(predicted.scores >= 0.5)
        assert len(confident) == 2  # matched + still-confident ghost
        predicted_late = estimate.predict(0.6)
        confident_late = predicted_late.filter(predicted_late.scores >= 0.5)
        assert len(confident_late) == 1  # ghost dropped below the cut

    def test_extrapolation_clamps_confidence(self):
        a = scene([[0, 0], [30, 0]])
        b = scene([[1, 0]])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        beyond = estimate.predict(2.0)
        assert np.all(beyond.scores >= 0.0)

    def test_predict_at_endpoints(self):
        a = scene([[0, 0]])
        b = scene([[10, 0]])
        estimate = analyze_pair(a, b, 0.0, 1.0)
        assert np.allclose(estimate.predict(0.0).centers[0, :2], [0, 0])
        assert np.allclose(estimate.predict(1.0).centers[0, :2], [10, 0])


class TestPredictFlat:
    def test_matches_predict(self):
        """Flat prediction runs time by time, and each time's rows are
        per-frame ``predict``'s, in its order."""
        rng = np.random.default_rng(0)
        a = scene(rng.uniform(-20, 20, (5, 2)))
        b = scene(rng.uniform(-20, 20, (4, 2)))
        estimate = analyze_pair(a, b, 0.0, 1.0)
        times = np.array([0.25, 0.5, 0.75])
        idx, labels, positions, scores = estimate.predict_flat(times)
        assert positions.shape == (len(idx), 2)
        assert np.all(np.diff(idx) >= 0)
        for k, t in enumerate(times):
            reference = estimate.predict(float(t))
            mask = idx == k
            assert np.array_equal(labels[mask], reference.labels)
            assert np.array_equal(positions[mask], reference.centers[:, :2])
            assert np.array_equal(scores[mask], reference.scores)

    def test_empty_timestamps(self):
        estimate = analyze_pair(scene([[0, 0]]), scene([[1, 0]]), 0.0, 1.0)
        idx, labels, positions, scores = estimate.predict_flat(np.array([]))
        assert len(idx) == len(labels) == len(positions) == len(scores) == 0

    def test_empty_scenes(self):
        estimate = analyze_pair(ObjectArray.empty(), ObjectArray.empty(), 0.0, 1.0)
        idx, labels, positions, scores = estimate.predict_flat(np.array([0.5]))
        assert len(idx) == 0
        assert positions.shape == (0, 2)
