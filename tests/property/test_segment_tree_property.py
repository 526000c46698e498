"""Property-based tests for the segment tree's structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SegmentTree
from tests.kernel_specs import check_select_child


@st.composite
def tree_runs(draw):
    n_frames = draw(st.integers(min_value=10, max_value=300))
    n_boundaries = draw(st.integers(min_value=2, max_value=8))
    boundary_ids = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=n_frames - 2),
                min_size=max(n_boundaries - 2, 0),
                max_size=n_boundaries,
            )
        )
    )
    boundaries = [0] + boundary_ids + [n_frames - 1]
    branching = draw(st.integers(min_value=2, max_value=4))
    max_depth = draw(st.integers(min_value=1, max_value=8))
    n_steps = draw(st.integers(min_value=0, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return boundaries, branching, max_depth, n_steps, seed


def run_tree(boundaries, branching, max_depth, n_steps, seed):
    rng = np.random.default_rng(seed)
    tree = SegmentTree(
        boundaries, branching=branching, max_depth=max_depth, rng=rng
    )
    sampled = set(boundaries)
    returned = []
    for step in range(n_steps):
        selection = tree.select(sampled.__contains__)
        if selection is None:
            break
        path, frame_id = selection
        tree.record(path, frame_id, reward=float(rng.random()))
        sampled.add(frame_id)
        returned.append(frame_id)
    return tree, sampled, returned


@given(tree_runs())
@settings(max_examples=80, deadline=None)
def test_returned_frames_are_fresh_and_interior(params):
    boundaries, branching, max_depth, n_steps, seed = params
    _, _, returned = run_tree(boundaries, branching, max_depth, n_steps, seed)
    assert len(returned) == len(set(returned))
    assert all(boundaries[0] < f < boundaries[-1] for f in returned)
    assert not (set(returned) & set(boundaries))


@given(tree_runs())
@settings(max_examples=80, deadline=None)
def test_leaves_always_partition_the_range(params):
    boundaries, branching, max_depth, n_steps, seed = params
    tree, _, _ = run_tree(boundaries, branching, max_depth, n_steps, seed)
    leaves = tree.leaves()
    assert leaves[0].lo == boundaries[0]
    assert leaves[-1].hi == boundaries[-1]
    for left, right in zip(leaves[:-1], leaves[1:]):
        assert left.hi == right.lo
    assert all(leaf.lo < leaf.hi for leaf in leaves)


@given(tree_runs())
@settings(max_examples=80, deadline=None)
def test_depth_never_exceeds_cap_plus_one(params):
    boundaries, branching, max_depth, n_steps, seed = params
    tree, _, _ = run_tree(boundaries, branching, max_depth, n_steps, seed)
    # Nodes at max_depth never split, so depth is bounded by the cap.
    depth, nodes, leaves = tree.shape()
    assert depth <= max_depth
    assert leaves == len(tree.leaves()) <= nodes


@given(tree_runs())
@settings(max_examples=50, deadline=None)
def test_exhaustion_is_consistent(params):
    boundaries, branching, max_depth, n_steps, seed = params
    tree, sampled, _ = run_tree(boundaries, branching, max_depth, 10_000, seed)
    # After a full drain, every interior frame has been sampled.
    assert tree.root.exhausted
    interior = set(range(boundaries[0] + 1, boundaries[-1])) - set(boundaries)
    assert interior <= sampled


@given(tree_runs())
@settings(max_examples=50, deadline=None)
def test_visit_counts_consistent(params):
    boundaries, branching, max_depth, n_steps, seed = params
    tree, _, returned = run_tree(boundaries, branching, max_depth, n_steps, seed)
    # Root visit count equals the number of successful adaptive steps.
    assert tree.root.visits == len(returned)
    # A parent's visits equal the sum of its children's (children are
    # visited exactly when the parent routes a selection through them,
    # except the step that created them).
    def check(node):
        if node.children is None:
            return
        child_visits = sum(c.visits for c in node.children)
        assert child_visits <= node.visits
        for child in node.children:
            check(child)

    check(tree.root)


# ----------------------------------------------------------------------
# The one-pass UCB choice against the per-child ``ucb_score`` spec
# ----------------------------------------------------------------------
def choose_as_the_spec(tree, node):
    return check_select_child(tree, node, SegmentTree._select_child)


def internal_nodes(tree):
    stack, out = [tree.root], []
    while stack:
        node = stack.pop()
        if node.children is not None:
            out.append(node)
            stack.extend(node.children)
    return out


@given(tree_runs(), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_select_child_equals_the_per_child_spec(params, tied_rewards, seed):
    """Every choice of a run, then every internal node with children
    marked exhausted or unvisited and rewards tied."""
    boundaries, branching, max_depth, n_steps, tree_seed = params
    rng = np.random.default_rng(tree_seed)
    tree = SegmentTree(boundaries, branching=branching, max_depth=max_depth, rng=rng)
    tree._select_child = lambda node: choose_as_the_spec(tree, node)
    sampled = set(boundaries)
    for _ in range(n_steps):
        selection = tree.select(sampled.__contains__)
        if selection is None:
            break
        path, frame_id = selection
        reward = float(rng.integers(0, 2)) if tied_rewards else float(rng.random())
        tree.record(path, frame_id, reward=reward)
        sampled.add(frame_id)

    perturb = np.random.default_rng(seed)
    for node in internal_nodes(tree):
        for child in node.children:
            draw = perturb.random()
            if draw < 0.2:
                child.exhausted = True
            elif draw < 0.4:
                child.visits = 0
            elif draw < 0.6 and node.children[0].visits:
                child.reward = node.children[0].reward
                child.visits = node.children[0].visits
        if perturb.random() < 0.1:
            node.visits = 0
        choose_as_the_spec(tree, node)
        for child in node.children:
            child.exhausted = True
        choose_as_the_spec(tree, node)  # both raise
