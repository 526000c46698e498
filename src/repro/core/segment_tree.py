"""The segment tree of hierarchical multi-agent sampling (paper §5.1).

The tree models the branching decision process: the root covers the
whole sequence, its children are the segments produced by the uniform
pass, and every adaptive sample splits the chosen leaf into
``branching`` sub-segments, assigning a fresh UCB decision to the node.
Selection walks UCB choices from the root to a leaf; the leaf yields the
middle unsampled frame of its range (or a random one once ``max_depth``
is exceeded, per the paper's depth cap).  The root, one child per
uniform-pass segment, decides with a :class:`~repro.core.bandit.UCBAgent`
over arrays of its children's statistics; inner nodes, a few children
each, score them in a loop.  Both draw ties from the tree's one RNG.

At ``max_depth=1`` no leaf ever splits and every leaf draws its frame
uniformly: that is the flat bandit of Seiden-PC and MAST-noH (paper
§7.1), fixed arms with a random unsampled frame inside the chosen one.

Nodes cover half-open ranges ``(lo, hi]``: a node's candidate frames are
``lo+1 .. hi`` (frames the sampler may still pick), which makes sibling
ranges partition the parent exactly — even for k-ary splits whose
internal boundaries are not themselves sampled.  Already-sampled frames
(the uniform pass, binary split points) are excluded dynamically via the
``is_sampled`` callback.  Exhausted subtrees (no unsampled candidate
left) are pruned from selection so high budgets terminate.
"""

from __future__ import annotations

import copy
import math
from typing import Callable

import numpy as np

from repro.core.bandit import UCBAgent
from repro.utils.rng import ensure_rng
from repro.utils.validation import require

__all__ = ["SegmentNode", "SegmentTree"]

IsSampled = Callable[[int], bool]


class SegmentNode:
    """One segment ``(lo, hi)`` with its bandit statistics."""

    __slots__ = ("lo", "hi", "depth", "arm", "children", "reward", "visits", "exhausted")

    def __init__(self, lo: int, hi: int, depth: int, arm: int | None = None) -> None:
        self.lo = int(lo)
        self.hi = int(hi)
        self.depth = int(depth)
        #: A root child's arm of the root's agent (its index among the
        #: root's children); ``None`` at every other depth.
        self.arm = arm
        self.children: list[SegmentNode] | None = None
        self.reward = 0.0
        self.visits = 0
        #: True once no unsampled candidate frame remains in the subtree.
        #: Leaves whose candidates are all sampled are detected (and
        #: flagged) lazily during selection.
        self.exhausted = self.hi <= self.lo

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def clone(self) -> SegmentNode:
        """This node and its subtree, copied field by field."""
        twin = SegmentNode.__new__(SegmentNode)
        twin.lo, twin.hi, twin.depth, twin.arm = self.lo, self.hi, self.depth, self.arm
        twin.reward, twin.visits, twin.exhausted = self.reward, self.visits, self.exhausted
        twin.children = (
            None if self.children is None else [child.clone() for child in self.children]
        )
        return twin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SegmentNode(({self.lo}, {self.hi}), depth={self.depth}, "
            f"reward={self.reward:.3f}, visits={self.visits})"
        )


class SegmentTree:
    """Hierarchical UCB policy over a frame-id range."""

    def __init__(
        self,
        boundaries: list[int] | np.ndarray,
        *,
        branching: int = 2,
        max_depth: int = 10,
        ucb_c: float = 2.0,
        alpha_r: float = 0.3,
        rng=None,
    ) -> None:
        boundaries = [int(b) for b in boundaries]
        require(len(boundaries) >= 2, "need at least two segment boundaries")
        require(
            boundaries == sorted(set(boundaries)),
            "boundaries must be strictly increasing",
        )
        require(branching >= 2, f"branching must be >= 2, got {branching}")
        require(max_depth >= 1, f"max_depth must be >= 1, got {max_depth}")
        self.branching = int(branching)
        self.max_depth = int(max_depth)
        self.ucb_c = float(ucb_c)
        self.alpha_r = float(alpha_r)
        self._rng = ensure_rng(rng, "segment_tree")

        self.root = SegmentNode(boundaries[0], boundaries[-1], depth=0)
        self.root.children = [
            SegmentNode(lo, hi, depth=1, arm=k)
            for k, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:]))
        ]
        #: The root's decision: its arms are the root's children, in order.
        #: Its ``rewards`` / ``pulls`` equal those children's ``reward`` /
        #: ``visits``, and ``_open`` their ``not exhausted``: the arrays
        #: make the wide decision one vectorized step, the nodes serve the
        #: inner decisions and introspection (a property test checks both).
        self._agent = UCBAgent(
            len(self.root.children), c=ucb_c, alpha=alpha_r, rng=self._rng
        )
        #: The root children that are not exhausted (the agent's ``available``).
        self._open = np.ones(len(self.root.children), dtype=bool)

    def append(self, boundaries: list[int]) -> None:
        """Grow the root's range with new first-level segments.

        ``boundaries`` continue the root's last one: each consecutive
        pair becomes a depth-1 segment, as the uniform pass's segments
        are.  Statistics and the RNG stream carry on untouched.
        """
        boundaries = [int(b) for b in boundaries]
        if not boundaries:
            return
        edges = [self.root.hi] + boundaries
        require(
            edges == sorted(set(edges)),
            "appended boundaries must continue the root strictly increasing",
        )
        children = self.root.children
        assert children is not None
        first = len(children)
        children.extend(
            SegmentNode(lo, hi, depth=1, arm=first + k)
            for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
        )
        self._agent.add_arms(len(boundaries))
        self._open = np.concatenate([self._open, np.ones(len(boundaries), dtype=bool)])
        self.root.hi = edges[-1]
        self.root.exhausted = False

    def clone(self) -> SegmentTree:
        """An independent copy: every node, and the RNG at its current state.

        Selecting, recording or appending on either tree leaves the
        other as it was, so a clone taken before a step is that step's
        rollback.
        """
        twin = copy.copy(self)
        bit_generator = type(self._rng.bit_generator)()
        bit_generator.state = self._rng.bit_generator.state
        twin._rng = np.random.Generator(bit_generator)
        twin._agent = self._agent.clone(twin._rng)
        twin._open = self._open.copy()
        twin.root = self.root.clone()
        return twin

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, is_sampled: IsSampled) -> tuple[list[SegmentNode], int] | None:
        """Walk UCB decisions to a leaf and pick its next frame.

        Returns ``(path, frame_id)`` where ``path`` runs from the root to
        the chosen leaf, or ``None`` when every segment is exhausted.
        Discovering that a leaf has no unsampled frame marks it exhausted
        and retries, so a returned frame is always fresh.
        """
        children = self.root.children
        assert children is not None
        while not self.root.exhausted:
            node = children[self._agent.select(self._open)]
            path = [self.root, node]
            while node.children is not None:
                node = self._select_child(node)
                path.append(node)
            frame_id = self._pick_frame(node, is_sampled)
            if frame_id is not None:
                return path, frame_id
            node.exhausted = True
            self._propagate_exhaustion(path)
        return None

    def _select_child(self, node: SegmentNode) -> SegmentNode:
        """An inner node's child with the highest UCB value
        (``tests/spec/mast.py``'s ``ucb``), as the root's agent picks it.

        One pass over the children: the log term is computed once, and
        exhausted children never enter the tie set the RNG draws from.
        """
        children = node.children
        assert children is not None
        n_total = node.visits
        log_term = 2.0 * math.log(n_total) if n_total > 0 else 0.0
        c = self.ucb_c
        best_value = -math.inf
        best: list[int] = []
        for k, child in enumerate(children):
            if child.exhausted:
                continue
            visits = child.visits
            if visits <= 0:
                value = math.inf
            elif n_total <= 0:
                value = child.reward
            else:
                value = child.reward + c * math.sqrt(log_term / visits)
            if value > best_value:
                best_value = value
                best = [k]
            elif value == best_value:
                best.append(k)
        if not best:
            raise RuntimeError(
                "selection descended into a fully exhausted node; "
                "exhaustion propagation is broken"
            )
        return children[best[int(self._rng.integers(len(best)))]]

    def _pick_frame(self, leaf: SegmentNode, is_sampled: IsSampled) -> int | None:
        """Choose the next frame in a leaf, or ``None`` if it is spent.

        Below the depth cap the leaf yields the frame nearest its middle
        that is still unsampled ("we select the middle PC frame");
        at the cap it samples uniformly among unsampled frames (§5.1).
        Candidates come from the node's ``(lo, hi]`` range.
        """
        lo, hi = leaf.lo, leaf.hi
        if hi <= lo:
            return None
        if leaf.depth >= self.max_depth:
            candidates = [f for f in range(lo + 1, hi + 1) if not is_sampled(f)]
            if not candidates:
                return None
            return candidates[int(self._rng.integers(len(candidates)))]
        middle = (lo + hi) // 2
        for offset in range(hi - lo + 1):
            for candidate in (middle - offset, middle + offset):
                if lo < candidate <= hi and not is_sampled(candidate):
                    return candidate
        return None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record(self, path: list[SegmentNode], frame_id: int, reward: float) -> None:
        """Split the sampled leaf and back up the reward along the path.

        Implements the per-step bookkeeping of Alg. 2 (lines 15-16):
        binary (or k-ary) splitting of the chosen leaf, then the Eq. 2
        EMA update of every node on the root-to-leaf path.
        """
        require(bool(path) and path[0] is self.root, "path must start at the root")
        leaf = path[-1]
        if leaf.is_leaf and leaf.depth < self.max_depth:
            self._split(leaf, frame_id)
        for node in path:
            node.visits += 1
            node.reward = (1.0 - self.alpha_r) * node.reward + self.alpha_r * reward
        arm = path[1].arm
        assert arm is not None, "a path's second node is a root child"
        self._agent.update(arm, reward)
        self._propagate_exhaustion(path)

    def _split(self, leaf: SegmentNode, frame_id: int) -> None:
        lo, hi = leaf.lo, leaf.hi
        if self.branching == 2:
            boundaries = [lo, frame_id, hi]
        else:
            raw = np.linspace(lo, hi, self.branching + 1)
            boundaries = sorted(set(int(round(b)) for b in raw))
        if len(boundaries) < 3:
            return  # segment too short to split; stays a leaf
        leaf.children = [
            SegmentNode(a, b, depth=leaf.depth + 1)
            for a, b in zip(boundaries[:-1], boundaries[1:])
        ]

    def _propagate_exhaustion(self, path: list[SegmentNode]) -> None:
        for node in reversed(path[1:]):
            if node.children is not None:
                node.exhausted = all(child.exhausted for child in node.children)
        arm = path[1].arm
        assert arm is not None, "a path's second node is a root child"
        self._open[arm] = not path[1].exhausted
        self.root.exhausted = not self._open.any()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leaves(self) -> list[SegmentNode]:
        """All current leaf segments, left to right."""
        out: list[SegmentNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.children is None:
                out.append(node)
            else:
                stack.extend(reversed(node.children))
        return out

    def shape(self) -> tuple[int, int, int]:
        """``(deepest depth, node count, leaf count)`` in one walk."""
        depth = nodes = leaves = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            nodes += 1
            if node.depth > depth:
                depth = node.depth
            if node.children is None:
                leaves += 1
            else:
                stack.extend(node.children)
        return depth, nodes, leaves
