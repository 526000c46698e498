"""MAST and its §7.1 baselines as the paper states them: an executable reference.

A literal transcription, in plain loops over frames, with no memo, cache,
tile, session, engine, store or wave: Alg. 1 (ST-PC analysis, with
scipy's assignment), Eq. 1 and Eq. 2, Alg. 2 (a uniform phase, then UCB
descent over a segment tree), Problem 1's periodic arrival, Alg. 3 (every
frame's real or extrapolated boxes) and §5 (the ST and linear count
series, retrieval and the Avg / Med / Count / Max / Min aggregates, with
the filters' masks re-implemented from their fields).  §7.1's methods
(``METHODS``) pair a sampler — Alg. 2 with Eq. 1 or Seiden's count
reward, the flat bandit, Uniform or Random — with a predictor per query.

Every choice the paper leaves open is a ``CHOICE:`` comment, and a line
of EXPERIMENTS.md "Known deviations".  A change that moves a sampling
digest changes this file in the same diff.  Imports: numpy, scipy, the
data types and the query AST only (``test_spec_imports.py``).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.data import FrameSequence, ObjectArray
from repro.query.ast import AggregateQuery, CompoundRetrievalQuery, Condition, ConditionAnd, RetrievalQuery
from repro.query.predicates import ObjectFilter, SpatialPredicate
from repro.query.spatial import AllOf, RegionPredicate, SectorPredicate, TilePredicate


def policy_rng(seed: int, sequence_name: str, stream: str = "sampler") -> np.random.Generator:
    """CHOICE (the RNG stream): one generator per sequence, keyed by (seed,
    ``stream``, name): PCG64 on ``SeedSequence([seed mod 2**32, h])``,
    ``h`` the little-endian 8-byte blake2b of ``"<stream>\\x1f<name>"``.
    MAST's stream is ``"sampler"``; it draws only for UCB ties and for a
    leaf's frame at the depth cap, in selection order."""
    digest = hashlib.blake2b(f"{stream}\x1f{sequence_name}".encode(), digest_size=8).digest()
    entropy = [int(seed) & 0xFFFFFFFF, int.from_bytes(digest, "little")]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ----------------------------------------------------------------------
# Alg. 1: ST-PC analysis, and Example 5.2's prediction
# ----------------------------------------------------------------------
def match(a: ObjectArray, b: ObjectArray, gate: float | None) -> list[tuple[int, int]]:
    """Minimum-cost matching of same-label boxes on centre distance (line 6), sorted.

    CHOICE (the gate, ``match_max_distance``): a pair farther apart never
    matches.  CHOICE (gate-aware masking): the most pairs within the gate,
    then the least total distance; infeasible entries are masked before
    the assignment, not dropped from an ungated optimum afterwards.
    CHOICE (ties): scipy's pick; the system's Hungarian takes the first
    minimum.  Continuous centre distances do not tie.
    """
    pairs = []
    for label in sorted(set(a.labels.tolist()) & set(b.labels.tolist())):
        rows = [i for i in range(len(a.labels)) if a.labels[i] == label]
        cols = [j for j in range(len(b.labels)) if b.labels[j] == label]
        cost = np.linalg.norm(a.centers[rows][:, None, :] - b.centers[cols][None, :, :], axis=2)
        feasible = np.ones(cost.shape, dtype=bool) if gate is None else cost <= gate
        if not feasible.any():
            continue
        # An infeasible pair costs more than any feasible assignment.
        sentinel = (min(cost.shape) + 1) * (float(cost[feasible].max()) + 1.0)
        for r, c in zip(*linear_sum_assignment(np.where(feasible, cost, sentinel))):
            if feasible[r, c]:
                pairs.append((rows[r], cols[c]))
    return sorted(pairs)


@dataclass
class Motion:
    """Alg. 1's output for sampled frames at ``t1 < t2``."""

    start: ObjectArray
    end: ObjectArray
    t1: float
    t2: float
    velocity: dict[int, np.ndarray]  # tracked start row -> xy velocity
    disappearing: list[int]  # unmatched start rows
    appearing: list[int]  # unmatched end rows


def analyse(start: ObjectArray, end: ObjectArray, t1: float, t2: float, gate) -> Motion:
    """Track same-label boxes across the pair; velocity = displacement / time."""
    pairs = match(start, end, gate)
    velocity = {i: (end.centers[j, :2] - start.centers[i, :2]) / (t2 - t1) for i, j in pairs}
    ended = {j for _, j in pairs}
    return Motion(
        start, end, float(t1), float(t2), velocity,
        [i for i in range(len(start)) if i not in velocity],
        [j for j in range(len(end)) if j not in ended],
    )


@dataclass
class Boxes:
    """One frame's (real or predicted) boxes."""

    labels: np.ndarray
    centers: np.ndarray  # (n, 3)
    scores: np.ndarray

    @classmethod
    def of(cls, objects: ObjectArray) -> Boxes:
        return cls(objects.labels, objects.centers, objects.scores)

    def confident(self, threshold: float) -> Boxes:
        keep = self.scores >= threshold
        return Boxes(self.labels[keep], self.centers[keep], self.scores[keep])


def predict(motion: Motion, t: float) -> Boxes:
    """Example 5.2: a tracked box moves at its velocity from ``t1``; a
    disappearing box stays, its confidence scaled by ``(t2 - t) / (t2 - t1)``;
    an appearing box sits at its ``t2`` place, scaled by ``(t - t1) / (t2 - t1)``.

    CHOICE (extrapolation past the last sample): outside ``[t1, t2]``
    tracked boxes keep moving and both factors are clamped to ``[0, 1]``.
    CHOICE (row order): tracked, then disappearing (both in start order),
    then appearing boxes; it fixes the summation order of Eq. 1.
    """
    fraction = min(max((t - motion.t1) / (motion.t2 - motion.t1), 0.0), 1.0)
    start, end = motion.start, motion.end
    rows = []  # (label, centre, score)
    for i in sorted(motion.velocity):
        center = start.centers[i].copy()
        center[:2] = motion.velocity[i] * (t - motion.t1) + center[:2]
        rows.append((start.labels[i], center, start.scores[i]))
    rows += [(start.labels[i], start.centers[i], start.scores[i] * (1.0 - fraction)) for i in motion.disappearing]
    rows += [(end.labels[j], end.centers[j], end.scores[j] * fraction) for j in motion.appearing]
    return Boxes(
        np.array([label for label, _, _ in rows], dtype="<U16"),
        np.array([center for _, center, _ in rows], dtype=float).reshape(-1, 3),
        np.array([score for _, _, score in rows], dtype=float),
    )


# ----------------------------------------------------------------------
# Eq. 1 and the UCB value
# ----------------------------------------------------------------------
def reward(estimated: Boxes, actual: Boxes, config) -> float:
    """``(1 - c_var) * sum(dist) / (d_max |M|) + c_var * (|B^e| + |B| - 2 |M|)``.

    CHOICE: both sides are cut at ``confidence_threshold`` first; the
    distance term is 0 when nothing matches.
    """
    estimated = estimated.confident(config.confidence_threshold)
    actual = actual.confident(config.confidence_threshold)
    pairs = match(estimated, actual, config.match_max_distance)
    distance_term = 0.0
    if pairs:
        rows, cols = np.array(pairs).T
        distances = np.linalg.norm(estimated.centers[rows] - actual.centers[cols], axis=1)
        distance_term = float(distances.sum()) / (config.d_max * len(pairs))
    mismatch_term = float(len(estimated.labels) + len(actual.labels) - 2 * len(pairs))
    return (1.0 - config.c_var) * distance_term + config.c_var * mismatch_term


def count_reward(left: int, right: int, actual: int, t_left: float, t_right: float, t: float) -> float:
    """Seiden's content-variance reward over confident box counts: the
    deviation ``x = |n - (n_l + (n_r - n_l) (t - t_l) / (t_r - t_l))|`` of
    the frame's count from its sampled neighbours' linear interpolation.

    CHOICE (the scale): ``x / (1 + x)``, so every arm's value lies in
    ``[0, 1)``; Seiden leaves it open."""
    deviation = abs(float(actual) - float(left + (right - left) * ((t - t_left) / (t_right - t_left))))
    return deviation / (1.0 + deviation)


def ucb(reward_: float, visits: int, parent_visits: int, c: float) -> float:
    """``v_k = r_k + c * sqrt(2 ln N / N_k)``.  CHOICE: an unvisited arm
    scores ``+inf``; under a parent never visited, an arm scores its reward."""
    if visits <= 0:
        return math.inf
    if parent_visits <= 0:
        return reward_
    return reward_ + c * math.sqrt(2.0 * math.log(parent_visits) / visits)


# ----------------------------------------------------------------------
# Alg. 2: uniform phase, then hierarchical UCB over a segment tree
# ----------------------------------------------------------------------
def paper_budget(config, n_frames: int) -> int:
    """``B``: ``budget_fraction`` of the frames, at least 2."""
    return min(n_frames, max(2, round(config.budget_fraction * n_frames)))


class Segment:
    """CHOICE: a segment covers frames ``(lo, hi]``, so siblings partition
    their parent; it is exhausted once none of them is left unsampled."""

    def __init__(self, lo: int, hi: int, depth: int) -> None:
        self.lo, self.hi, self.depth = lo, hi, depth
        self.children: list[Segment] | None = None
        self.reward, self.visits, self.exhausted = 0.0, 0, hi <= lo


class Run:
    """The frames a sampler chose over one sequence.  ``detect(frame_id)``
    is the deep model: each call is one billed invocation, and no frame is
    asked twice."""

    def __init__(self, sequence: FrameSequence, detect, config) -> None:
        self.config, self._detect = config, detect
        self.detections: dict[int, ObjectArray] = {}
        self.billed = 0
        self.sampled: list[int] = []
        self.timestamps, self.n_frames = np.asarray(sequence.timestamps, dtype=float), len(sequence)

    def _detect_frame(self, frame_id: int) -> ObjectArray:
        assert frame_id not in self.detections, f"frame {frame_id} detected twice"
        self.billed += 1
        self.detections[frame_id] = self._detect(frame_id)
        return self.detections[frame_id]

    def confident(self, frame_id: int) -> int:
        """The sampled frame's box count at ``confidence_threshold``."""
        return int(np.count_nonzero(self.detections[frame_id].scores >= self.config.confidence_threshold))


class Sampler(Run):
    """Alg. 2 over one sequence, scoring a sampled frame with Eq. 1
    (``reward_kind="st"``) or Seiden's count reward (``"count"``), its
    draws on RNG stream ``stream``."""

    def __init__(self, sequence: FrameSequence, detect, config, reward_kind="st", stream="sampler") -> None:
        super().__init__(sequence, detect, config)
        self.reward_kind = reward_kind
        self.rng = policy_rng(config.seed, sequence.name, stream)
        budget = paper_budget(config, self.n_frames)
        # CHOICE (the uniform grid): round(beta * B) frames (at least 2)
        # equally spaced over [0, n - 1], both endpoints included, rounded
        # half to even; its gaps are the tree's first level.
        points = np.linspace(0, self.n_frames - 1, min(budget, max(2, round(config.beta * budget))))
        self.sampled = sorted(set(int(p) for p in np.round(points)))
        for frame_id in self.sampled:
            self._detect_frame(frame_id)
        self.root = Segment(self.sampled[0], self.sampled[-1], 0)
        self.root.children = [Segment(lo, hi, 1) for lo, hi in zip(self.sampled, self.sampled[1:])]
        self.root.exhausted = all(child.exhausted for child in self.root.children)
        self.last_grid = self.sampled[-1]
        self._adapt(budget)

    def grow(self, sequence: FrameSequence) -> None:
        """Problem 1: follow ``sequence``, this one plus newly arrived frames.

        CHOICE: the grid continues at stride ``round(1 / (beta *
        budget_fraction))`` from its last point; new grid points are
        detected and become first-level segments; then Alg. 2 spends
        ``B(n_new)`` minus the frames sampled so far, the random stream
        carrying on.  Frames past the last grid point stay outside the tree.
        """
        config = self.config
        self.timestamps, self.n_frames = np.asarray(sequence.timestamps, dtype=float), len(sequence)
        stride = max(1, round(1 / (config.beta * config.budget_fraction)))
        grid = list(range(self.last_grid + stride, self.n_frames, stride))
        for frame_id in grid:
            self._detect_frame(frame_id)
        if grid:
            edges = [self.root.hi] + grid
            self.root.children += [Segment(lo, hi, 1) for lo, hi in zip(edges, edges[1:])]
            self.root.hi, self.root.exhausted, self.last_grid = grid[-1], False, grid[-1]
            self.sampled += grid
        self._adapt(paper_budget(config, self.n_frames))

    def _adapt(self, budget: int) -> None:
        """Lines 7-17: select, detect, score, record, until ``budget``
        frames are sampled or the tree is spent.

        CHOICE (the reward at an endpoint): none is needed.  The uniform
        grid samples the tree's both ends, so every frame the tree offers
        has a sampled neighbour on each side."""
        ts = self.timestamps
        for _ in range(max(0, budget - len(self.sampled))):
            selection = self._select()
            if selection is None:
                break
            path, frame_id = selection
            actual = self._detect_frame(frame_id)
            position = bisect.bisect_left(self.sampled, frame_id)
            left, right = self.sampled[position - 1], self.sampled[position]
            if self.reward_kind == "count":
                counts = (self.confident(left), self.confident(right), self.confident(frame_id))
                value = count_reward(*counts, ts[left], ts[right], ts[frame_id])
            else:
                motion = analyse(
                    self.detections[left], self.detections[right], ts[left], ts[right],
                    self.config.match_max_distance,
                )
                value = reward(predict(motion, ts[frame_id]), Boxes.of(actual), self.config)
            self._record(path, frame_id, value)
            self.sampled.insert(position, frame_id)

    def _select(self) -> tuple[list[Segment], int] | None:
        """Walk UCB choices from the root to a leaf and take its next frame.

        CHOICE (tie set and draw): the live children at the maximum ``v_k``
        (``+inf`` included; exhausted children never enter), and one
        ``rng.choice(ties)`` per decision, even for a single tie.  CHOICE:
        a leaf found spent is marked exhausted, exhaustion propagates up,
        and the descent restarts from the root; its draws stay spent.
        """
        while not self.root.exhausted:
            path = [self.root]
            while path[-1].children is not None:
                node = path[-1]
                scored = [
                    (k, ucb(child.reward, child.visits, node.visits, self.config.ucb_c))
                    for k, child in enumerate(node.children)
                    if not child.exhausted
                ]
                best = max(value for _, value in scored)
                ties = [k for k, value in scored if value == best]
                path.append(node.children[int(self.rng.choice(ties))])
            frame_id = self._frame_of(path[-1])
            if frame_id is not None:
                return path, frame_id
            path[-1].exhausted = True
            self._propagate(path)
        return None

    def _frame_of(self, leaf: Segment) -> int | None:
        """CHOICE (§5.1's middle frame): below the depth cap, the unsampled
        frame nearest ``(lo + hi) // 2``, below before above; at the cap, a
        uniform ``rng.choice`` of the leaf's unsampled frames, ascending."""
        taken, lo, hi = set(self.sampled), leaf.lo, leaf.hi
        if hi <= lo:
            return None
        if leaf.depth >= self.config.max_depth:
            candidates = [f for f in range(lo + 1, hi + 1) if f not in taken]
            return int(self.rng.choice(candidates)) if candidates else None
        middle = (lo + hi) // 2
        for offset in range(hi - lo + 1):
            for candidate in (middle - offset, middle + offset):
                if lo < candidate <= hi and candidate not in taken:
                    return candidate
        return None

    def _record(self, path: list[Segment], frame_id: int, value: float) -> None:
        """Split the leaf, then Eq. 2 on the path: ``r <- (1 - alpha_r) r +
        alpha_r r_v``, one more visit each.

        CHOICE (the split): below the depth cap, binary at the sampled
        frame; for ``k > 2`` at the rounded ``linspace(lo, hi, k + 1)``,
        duplicates dropped, and no split if fewer than three remain.
        """
        config, leaf = self.config, path[-1]
        if leaf.children is None and leaf.depth < config.max_depth:
            if config.branching == 2:
                bounds = [leaf.lo, frame_id, leaf.hi]
            else:
                bounds = sorted(set(int(round(b)) for b in np.linspace(leaf.lo, leaf.hi, config.branching + 1)))
            if len(bounds) >= 3:
                leaf.children = [Segment(lo, hi, leaf.depth + 1) for lo, hi in zip(bounds, bounds[1:])]
        for node in path:
            node.visits += 1
            node.reward = (1.0 - config.alpha_r) * node.reward + config.alpha_r * value
        self._propagate(path)

    @staticmethod
    def _propagate(path: list[Segment]) -> None:
        for node in reversed(path):
            if node.children is not None:
                node.exhausted = all(child.exhausted for child in node.children)


# ----------------------------------------------------------------------
# §7.1's baselines
# ----------------------------------------------------------------------
def flat_bandit(sequence: FrameSequence, detect, config, reward_kind: str) -> Sampler:
    """Seiden's flat bandit (Seiden-PC, Seiden-PCST and MAST-noH): Alg. 2's
    tree at depth cap 1.

    CHOICE (the arm set): the uniform pass's gaps, fixed; at the cap no
    leaf splits.  CHOICE (the frame inside an arm): ``_frame_of`` at the
    cap, a uniform draw of the arm's unsampled frames.  CHOICE (the RNG
    stream): ``"seiden"``, not MAST's ``"sampler"``.  CHOICE (a spent
    arm): found spent when next selected, as in ``_select``.  Dropping it
    at its last frame instead differs only where a later tie draws,
    at budgets near the whole sequence.
    """
    return Sampler(sequence, detect, replace(config, max_depth=1), reward_kind, stream="seiden")


def uniform(sequence: FrameSequence, detect, config) -> Run:
    """The Uniform baseline.  CHOICE: all ``B`` frames on the uniform grid,
    ``B`` points over ``[0, n - 1]``, both ends included, rounded half to
    even, duplicates dropped."""
    run = Run(sequence, detect, config)
    points = np.linspace(0, run.n_frames - 1, paper_budget(config, run.n_frames))
    run.sampled = sorted(set(int(p) for p in np.round(points)))
    for frame_id in run.sampled:
        run._detect_frame(frame_id)
    return run


def random(sequence: FrameSequence, detect, config) -> Run:
    """The Random baseline.  CHOICE: both ends, so every frame has sampled
    neighbours, then ``B - 2`` of the other frames drawn by one
    ``rng.choice(frames 1 .. n - 2, size, replace=False)`` on stream
    ``"random_sampler"``."""
    run = Run(sequence, detect, config)
    n_frames = run.n_frames
    rest = np.arange(1, n_frames - 1)
    size = min(max(paper_budget(config, n_frames) - 2, 0), len(rest))
    drawn = policy_rng(config.seed, sequence.name, "random_sampler").choice(rest, size=size, replace=False)
    run.sampled = sorted({0, n_frames - 1, *(int(f) for f in drawn)})
    for frame_id in run.sampled:
        run._detect_frame(frame_id)
    return run


OPERATORS = ("Avg", "Med", "Count", "Min", "Max")
LINEAR = {operator: "linear" for operator in OPERATORS}
ST = {operator: "st" for operator in OPERATORS}
#: §7.1: ST everywhere except Avg, which reads the linear series.
MAST_MIX = {**ST, "Avg": "linear"}

#: §7.1's sampled methods: name -> (sampler, retrieval predictor,
#: predictor by operator).  CHOICE: Random and Uniform, which the paper
#: does not table, answer linearly, as Seiden-PC does.
METHODS = {
    "seiden_pc": (lambda s, d, c: flat_bandit(s, d, c, "count"), "linear", LINEAR),
    "seiden_pcst": (lambda s, d, c: flat_bandit(s, d, c, "count"), "st", ST),
    "mast": (lambda s, d, c: Sampler(s, d, c, "st"), "st", MAST_MIX),
    "mast_nost": (lambda s, d, c: Sampler(s, d, c, "count"), "linear", LINEAR),
    "mast_noh": (lambda s, d, c: flat_bandit(s, d, c, "st"), "st", MAST_MIX),
    "random": (random, "linear", LINEAR),
    "uniform": (uniform, "linear", LINEAR),
}


# ----------------------------------------------------------------------
# Alg. 3 and §5
# ----------------------------------------------------------------------
def index(sampler: Run) -> list[Boxes]:
    """Every frame's boxes: detections where sampled, else the Alg. 1
    prediction from the sampled frames around it.  CHOICE (extrapolation
    past the last sample): from the last two sampled frames."""
    sampled, ts, gate = sampler.sampled, sampler.timestamps, sampler.config.match_max_distance
    frames = []
    for frame_id in range(sampler.n_frames):
        if frame_id in sampler.detections:
            frames.append(Boxes.of(sampler.detections[frame_id]))
            continue
        position = min(bisect.bisect_left(sampled, frame_id), len(sampled) - 1)
        left, right = sampled[position - 1], sampled[position]
        motion = analyse(sampler.detections[left], sampler.detections[right], ts[left], ts[right], gate)
        frames.append(predict(motion, ts[frame_id]))
    return frames


def _compare(values: np.ndarray, op: str, threshold: float) -> np.ndarray:
    return {"<=": values <= threshold, ">=": values >= threshold, "<": values < threshold, ">": values > threshold}[op]


def _inside(spatial, xy: np.ndarray) -> np.ndarray:
    """Which sensor-frame xy positions a spatial filter keeps."""
    x, y = xy[:, 0], xy[:, 1]
    if isinstance(spatial, SpatialPredicate):
        return _compare(np.hypot(x, y), spatial.op, spatial.threshold)
    if isinstance(spatial, SectorPredicate):
        return (np.degrees(np.arctan2(y, x)) - spatial.start_deg) % 360.0 <= spatial.end_deg - spatial.start_deg
    if isinstance(spatial, TilePredicate):  # quadrant digits below the ±4096 m root
        x_min, y_min, x_max, y_max = -4096.0, -4096.0, 4096.0, 4096.0
        for digit in map(int, spatial.path):
            cx, cy = 0.5 * (x_min + x_max), 0.5 * (y_min + y_max)
            x_min, x_max = (x_min, cx) if digit % 2 == 0 else (cx, x_max)
            y_min, y_max = (y_min, cy) if digit < 2 else (cy, y_max)
        spatial = RegionPredicate(x_min, y_min, x_max, y_max)
    if isinstance(spatial, RegionPredicate):
        return (x >= spatial.x_min) & (x <= spatial.x_max) & (y >= spatial.y_min) & (y <= spatial.y_max)
    if isinstance(spatial, AllOf):
        return np.logical_and.reduce([_inside(part, xy) for part in spatial.filters])
    raise TypeError(f"no spec for spatial filter {type(spatial).__name__}")


def keeps(object_filter: ObjectFilter, boxes: Boxes) -> float:
    """How many of a frame's boxes pass the confidence, label and spatial tests."""
    keep = boxes.scores >= object_filter.confidence
    if object_filter.label is not None:
        keep &= boxes.labels == object_filter.label
    if object_filter.spatial is not None:
        keep &= _inside(object_filter.spatial, boxes.centers[:, :2])
    return float(np.count_nonzero(keep))


def st_counts(frames: list[Boxes], object_filter: ObjectFilter) -> np.ndarray:
    """ST prediction (§5.3): the filter's count in every indexed frame."""
    return np.array([keeps(object_filter, boxes) for boxes in frames])


def linear_counts(sampler: Run, object_filter: ObjectFilter) -> np.ndarray:
    """Linear prediction (Example 5.3): sampled counts interpolated in time.

    CHOICE: ``slope * (t - t_a) + n_a`` between sampled ``a < t < b``
    (numpy's ``interp`` formula); outside the sampled range, the nearest
    sampled count.
    """
    sampled, ts = sampler.sampled, sampler.timestamps
    at = {f: keeps(object_filter, Boxes.of(sampler.detections[f])) for f in sampled}
    series = []
    for frame_id in range(sampler.n_frames):
        position = bisect.bisect_left(sampled, frame_id)
        if frame_id in at or position in (0, len(sampled)):
            series.append(at[sampled[min(position, len(sampled) - 1)]])
            continue
        a, b = sampled[position - 1], sampled[position]
        series.append((at[b] - at[a]) / (ts[b] - ts[a]) * (ts[frame_id] - ts[a]) + at[a])
    return np.array(series)


@dataclass
class Fitted:
    sampler: Run

    @cached_property
    def frames(self) -> list[Boxes]:
        return index(self.sampler)

    def series(self, kind: str, object_filter: ObjectFilter) -> np.ndarray:
        """CHOICE: a linear retrieval reads the floored interpolant
        (Example 5.3), a linear aggregate the continuous one."""
        if kind == "st":
            return st_counts(self.frames, object_filter)
        series = linear_counts(self.sampler, object_filter)
        return np.floor(series) if kind == "linear_floor" else series


def fit(sequence: FrameSequence, detect, config) -> Fitted:
    return Fitted(Sampler(sequence, detect, config))


def fit_method(name: str, sequence: FrameSequence, detect, config) -> Fitted:
    """§7.1's method ``name`` on ``config``'s sampling parameters."""
    sample, retrieval, by_operator = METHODS[name]
    config = replace(config, retrieval_predictor=retrieval, predictor_by_operator=dict(by_operator))
    return Fitted(sample(sequence, detect, config))


def grow(fitted: Fitted, sequence: FrameSequence) -> Fitted:
    fitted.sampler.grow(sequence)
    return Fitted(fitted.sampler)


def route(config, query) -> str:
    """§7.1: retrieval by ``retrieval_predictor``; an aggregate by its
    operator's predictor, ``retrieval_predictor`` when unnamed."""
    if isinstance(query, (RetrievalQuery, CompoundRetrievalQuery)):
        return "linear_floor" if config.retrieval_predictor == "linear" else "st"
    return config.predictor_by_operator.get(query.operator, config.retrieval_predictor)


def _holds(condition, fitted: Fitted, kind: str) -> np.ndarray:
    if isinstance(condition, Condition):
        predicate = condition.count_predicate
        return _compare(fitted.series(kind, condition.object_filter), predicate.op, predicate.threshold)
    masks = [_holds(child, fitted, kind) for child in condition.children]
    return (np.logical_and if isinstance(condition, ConditionAnd) else np.logical_or).reduce(masks)


def answer(fitted: Fitted, query):
    """``("frames", ids)`` or ``("value", value, counts)``; Avg / Med / Min /
    Max are numpy's ``mean`` / ``median`` / ``min`` / ``max``, Count the
    number of frames whose count satisfies the predicate."""
    kind = route(fitted.sampler.config, query)
    if isinstance(query, RetrievalQuery):
        query = CompoundRetrievalQuery(Condition(query.object_filter, query.count_predicate))
    if isinstance(query, CompoundRetrievalQuery):
        return ("frames", np.flatnonzero(_holds(query.condition, fitted, kind)))
    assert isinstance(query, AggregateQuery)
    counts = fitted.series(kind, query.object_filter)
    if query.operator == "Count":
        predicate = query.count_predicate
        return ("value", float(np.count_nonzero(_compare(counts, predicate.op, predicate.threshold))), counts)
    reduce = {"Avg": np.mean, "Med": np.median, "Min": np.min, "Max": np.max}[query.operator]
    return ("value", float(reduce(counts)), counts)
