"""Unit tests for the hierarchical segment tree."""

import numpy as np
import pytest

from repro.core import SegmentTree


def make_tree(boundaries=(0, 50, 100), **kwargs):
    return SegmentTree(list(boundaries), rng=np.random.default_rng(0), **kwargs)


class TestConstruction:
    def test_root_children_are_initial_segments(self):
        tree = make_tree((0, 30, 60, 90))
        children = tree.root.children
        assert [(c.lo, c.hi) for c in children] == [(0, 30), (30, 60), (60, 90)]

    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentTree([5])
        with pytest.raises(ValueError):
            SegmentTree([5, 3])
        with pytest.raises(ValueError):
            SegmentTree([0, 10], branching=1)

    def test_tiny_segment_exhausts_on_first_selection(self):
        """A (0, 1) segment with both boundaries sampled yields nothing."""
        tree = make_tree((0, 1, 10))
        sampled = {0, 1, 10}
        first = tree.root.children[0]
        assert not first.exhausted  # lazily detected, not flagged upfront
        for _ in range(12):
            selection = tree.select(sampled.__contains__)
            if selection is None:
                break
            path, frame_id = selection
            assert 1 < frame_id < 10  # never from the empty (0, 1] segment
            tree.record(path, frame_id, reward=0.0)
            sampled.add(frame_id)
        assert first.exhausted


class TestSelection:
    def test_leaf_returns_middle_frame(self):
        tree = make_tree((0, 100))
        sampled = {0, 100}
        path, frame_id = tree.select(sampled.__contains__)
        assert frame_id == 50
        assert path[-1].lo == 0 and path[-1].hi == 100

    def test_middle_skips_sampled(self):
        tree = make_tree((0, 100))
        sampled = {0, 50, 100}
        _, frame_id = tree.select(sampled.__contains__)
        assert frame_id in (49, 51)

    def test_never_returns_sampled_frame(self):
        tree = make_tree((0, 20, 40))
        sampled = set(range(0, 41, 2))  # every even frame sampled
        for _ in range(10):
            selection = tree.select(sampled.__contains__)
            assert selection is not None
            path, frame_id = selection
            assert frame_id not in sampled
            tree.record(path, frame_id, reward=0.5)
            sampled.add(frame_id)

    def test_exhaustion_returns_none(self):
        tree = make_tree((0, 4))
        sampled = {0, 1, 2, 3, 4}
        assert tree.select(sampled.__contains__) is None
        assert tree.root.exhausted

    def test_full_drain_samples_every_interior_frame(self):
        tree = make_tree((0, 16, 32), max_depth=10)
        sampled = {0, 16, 32}
        drained = set()
        while True:
            selection = tree.select(sampled.__contains__)
            if selection is None:
                break
            path, frame_id = selection
            tree.record(path, frame_id, reward=0.0)
            sampled.add(frame_id)
            drained.add(frame_id)
        assert drained == set(range(1, 32)) - {16}


class TestRecord:
    def test_binary_split_at_sampled_frame(self):
        tree = make_tree((0, 100))
        path, frame_id = tree.select({0, 100}.__contains__)
        tree.record(path, frame_id, reward=1.0)
        leaf = path[-1]
        assert [(c.lo, c.hi) for c in leaf.children] == [(0, 50), (50, 100)]

    def test_reward_ema_along_path(self):
        tree = make_tree((0, 100), alpha_r=0.3)
        path, frame_id = tree.select({0, 100}.__contains__)
        tree.record(path, frame_id, reward=1.0)
        assert tree.root.reward == pytest.approx(0.3)
        assert path[-1].reward == pytest.approx(0.3)

    def test_visits_incremented(self):
        tree = make_tree((0, 100))
        path, frame_id = tree.select({0, 100}.__contains__)
        tree.record(path, frame_id, reward=0.0)
        assert tree.root.visits == 1
        assert path[-1].visits == 1

    def test_path_must_start_at_root(self):
        tree = make_tree((0, 100))
        with pytest.raises(ValueError, match="root"):
            tree.record([tree.root.children[0]], 50, 0.0)

    def test_branching_factor_k(self):
        tree = make_tree((0, 90), branching=3)
        path, frame_id = tree.select({0, 90}.__contains__)
        tree.record(path, frame_id, reward=0.0)
        children = path[-1].children
        assert len(children) == 3
        assert children[0].lo == 0 and children[-1].hi == 90

    def test_max_depth_leaf_stays_leaf(self):
        tree = make_tree((0, 100), max_depth=1)
        sampled = {0, 100}
        path, frame_id = tree.select(sampled.__contains__)
        tree.record(path, frame_id, reward=0.0)
        assert path[-1].children is None  # depth cap reached, no split

    def test_max_depth_leaf_samples_randomly(self):
        tree = make_tree((0, 100), max_depth=1)
        sampled = {0, 100}
        seen = set()
        for _ in range(20):
            selection = tree.select(sampled.__contains__)
            path, frame_id = selection
            tree.record(path, frame_id, reward=0.0)
            sampled.add(frame_id)
            seen.add(frame_id)
        # Random sampling spreads beyond the deterministic middle chain.
        assert len(seen) == 20


class TestIntrospection:
    def test_leaves_partition_root_range(self):
        tree = make_tree((0, 64, 128))
        sampled = {0, 64, 128}
        for _ in range(20):
            path, frame_id = tree.select(sampled.__contains__)
            tree.record(path, frame_id, reward=float(frame_id % 3))
            sampled.add(frame_id)
        leaves = tree.leaves()
        assert leaves[0].lo == 0
        assert leaves[-1].hi == 128
        for left, right in zip(leaves[:-1], leaves[1:]):
            assert left.hi == right.lo

    def test_leaf_count_grows_by_branching_minus_one(self):
        tree = make_tree((0, 100), branching=2)
        before = len(tree.leaves())
        path, frame_id = tree.select({0, 100}.__contains__)
        tree.record(path, frame_id, reward=0.0)
        assert len(tree.leaves()) == before + 1

    def test_depth_and_node_counts(self):
        tree = make_tree((0, 100))
        assert tree.shape() == (1, 2, 1)
        path, frame_id = tree.select({0, 100}.__contains__)
        tree.record(path, frame_id, reward=0.0)
        assert tree.shape() == (2, 4, 2)
