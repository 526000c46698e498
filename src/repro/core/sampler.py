"""Budgeted frame sampling (paper Alg. 2).

:class:`HierarchicalMultiAgentSampler` is MAST's sampler: a uniform pass
over ``beta * B`` frames initializes the segment tree, then the remaining
budget is spent by walking UCB decisions to a leaf, sampling its middle
frame, scoring it with the ST-PC reward (Eq. 1), and splitting the leaf.

The module also defines the shared :class:`BaseSampler` machinery
(budget accounting, deterministic detection with cost charging, uniform
pass) that the baselines in :mod:`repro.baselines` reuse, and the
:class:`SamplingResult` record every sampler produces.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import MASTConfig
from repro.core.reward import count_deviation_reward, triple_reward
from repro.core.segment_tree import SegmentTree
from repro.data.annotations import ObjectArray, pack_frames, unpack_frames
from repro.data.sequence import FrameSequence
from repro.inference import InferenceEngine
from repro.models.base import DetectionModel
from repro.utils.rng import ensure_rng
from repro.utils.timing import STAGE_POLICY, CostLedger
from repro.utils.validation import require, require_in

__all__ = [
    "SamplingResult",
    "BaseSampler",
    "AdaptiveSamplingSession",
    "HierarchicalMultiAgentSampler",
    "uniform_ids",
]


def uniform_ids(n_frames: int, budget: int) -> np.ndarray:
    """Equally spaced frame ids including both endpoints (uniform pass).

    The paper's uniform stage samples ``S_u = {P_0, ..., P_|D|}`` with
    equal interval; including the endpoints guarantees every unsampled
    frame has sampled neighbours on both sides.
    """
    require(n_frames >= 1, "n_frames must be >= 1")
    budget = max(2, min(int(budget), n_frames))
    if n_frames == 1:
        return np.zeros(1, dtype=np.int64)
    return np.unique(np.round(np.linspace(0, n_frames - 1, budget)).astype(np.int64))


@dataclass
class SamplingResult:
    """Everything a sampling run produces.

    Attributes
    ----------
    sampled_ids:
        Sorted frame ids processed by the deep model.
    detections:
        ``frame_id -> ObjectArray`` raw model output for sampled frames.
    rewards:
        Adaptive-phase rewards in sampling order (diagnostics / RQ8).
    ledger:
        Cost accounting: simulated deep-model seconds + measured policy
        seconds.
    """

    sequence_name: str
    n_frames: int
    timestamps: np.ndarray
    budget: int
    sampled_ids: np.ndarray
    detections: dict[int, ObjectArray]
    rewards: list[float] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    policy_info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sampled_ids = np.asarray(self.sampled_ids, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=float)

    def __getstate__(self) -> dict[str, object]:
        """The fields, with ``detections`` as columns (:func:`pack_frames`).

        The value is unchanged, and so is its ``stable_digest``; only the
        pickle holds a few concatenated arrays instead of one object set
        per sampled frame.
        """
        state = dict(self.__dict__)
        state["detections"] = pack_frames(self.detections)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        detections = state["detections"]
        if not isinstance(detections, tuple):
            raise TypeError(
                "a pickled SamplingResult holds its detections as pack_frames "
                f"columns, got {type(detections).__name__}"
            )
        self.__dict__.update(state, detections=unpack_frames(detections))

    @property
    def sampling_fraction(self) -> float:
        """Fraction of the sequence processed by the deep model."""
        return len(self.sampled_ids) / self.n_frames if self.n_frames else 0.0

    def gaps(self) -> list[tuple[int, int]]:
        """Adjacent sampled-frame pairs bounding each unsampled run."""
        ids = self.sampled_ids
        return [(int(a), int(b)) for a, b in zip(ids[:-1], ids[1:]) if b - a > 1]


class BaseSampler(ABC):
    """Shared budget / detection / uniform-pass machinery for samplers."""

    name: str = "sampler"

    def __init__(self, config: MASTConfig | None = None) -> None:
        self.config = config or MASTConfig()

    # ------------------------------------------------------------------
    @abstractmethod
    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        """Select and process ``budget`` frames of ``sequence``.

        ``engine`` carries the (optional) shared detection store and the
        motion memo; ``None`` runs on a private, store-less engine.
        """

    def _uniform_phase(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        budget: int,
        ledger: CostLedger,
        engine: InferenceEngine,
        *,
        known: dict[int, ObjectArray] | None = None,
    ) -> tuple[list[int], dict[int, ObjectArray]]:
        """Detect the uniform pass and return (ids, detections).

        ``known`` seeds the run's accumulator with detections from an
        earlier epoch over the same sequence; those frames are answered
        locally and never re-billed.
        """
        detections: dict[int, ObjectArray] = dict(known) if known else {}
        ids = uniform_ids(len(sequence), budget)
        engine.detect_wave(sequence, ids, model, ledger=ledger, known=detections)
        return [int(i) for i in ids], detections

    def _adaptive_reward(
        self,
        sequence: FrameSequence,
        sampled: list[int],
        detections: dict[int, ObjectArray],
        frame_id: int,
        actual: ObjectArray,
        reward_kind: str,
        engine: InferenceEngine,
    ) -> float:
        """Reward of newly sampled ``frame_id`` w.r.t. its sampled neighbours.

        ``reward_kind="st"`` computes Eq. 1 against the ST-PC prediction,
        once per (left, right, actual) triple of detections under
        ``engine``; ``reward_kind="count"`` computes the Seiden-style
        count-deviation reward against linear interpolation.  ``sampled``
        must be sorted and must *not* yet contain ``frame_id``, and
        ``frame_id`` lies between two of its frames: the segment tree
        offers only frames inside its range, whose ends the uniform pass
        samples.
        """
        config = self.config
        position = bisect.bisect_left(sampled, frame_id)
        assert 0 < position < len(sampled), "a frame without two sampled neighbours"
        left, right = sampled[position - 1], sampled[position]
        threshold = config.confidence_threshold
        timestamps = sequence.timestamps

        if reward_kind == "count":
            left_n = _confident_count(detections[left], threshold)
            right_n = _confident_count(detections[right], threshold)
            interpolated = left_n + (right_n - left_n) * (
                (timestamps[frame_id] - timestamps[left])
                / (timestamps[right] - timestamps[left])
            )
            return count_deviation_reward(
                _confident_count(actual, threshold), interpolated
            )

        return triple_reward(
            engine,
            detections[left],
            detections[right],
            actual,
            timestamps[left],
            timestamps[right],
            timestamps[frame_id],
            confidence_threshold=threshold,
            d_max=config.d_max,
            c_var=config.c_var,
            max_distance=config.match_max_distance,
        )


class HierarchicalMultiAgentSampler(BaseSampler):
    """MAST's sampler — hierarchical multi-agent UCB over a segment tree.

    ``reward_kind`` selects the adaptive reward:

    * ``"st"`` (default) — Eq. 1, the ST-PC deviation reward;
    * ``"count"`` — the Seiden-style count-deviation reward, giving the
      MAST-noST ablation of RQ7.

    The flat baselines (:class:`~repro.baselines.seiden.SeidenPCSampler`)
    are this sampler at depth cap 1 on their own RNG stream.
    """

    name = "mast"
    #: The segment tree's RNG stream: ``(seed, rng_stream, sequence name)``.
    rng_stream = "sampler"

    def __init__(
        self, config: MASTConfig | None = None, *, reward_kind: str = "st"
    ) -> None:
        super().__init__(config)
        require_in(reward_kind, ("st", "count"), "reward_kind")
        self.reward_kind = reward_kind

    # ------------------------------------------------------------------
    def sample(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        ledger: CostLedger | None = None,
        engine: InferenceEngine | None = None,
    ) -> SamplingResult:
        session = AdaptiveSamplingSession(
            self, sequence, model, ledger=ledger,
            engine=engine or InferenceEngine(),
        )
        session.step(session.remaining)
        return session.result()

    def session(
        self,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        engine: InferenceEngine,
        ledger: CostLedger | None = None,
        budget: int | None = None,
        known: dict[int, ObjectArray] | None = None,
    ) -> AdaptiveSamplingSession:
        """Open a resumable sampling session (uniform pass runs eagerly).

        The corpus layer uses sessions to interleave adaptive sampling
        across many sequences under one shared budget: each ``step``
        spends a caller-controlled slice of budget and reports the
        ST-PC rewards it observed, so a root-level allocator can steer
        subsequent slices toward the sequences that earn the most.

        ``known`` re-enters the session across ingest epochs: frames
        already detected in an earlier plan over (a prefix of) the same
        sequence are answered from the carried dict at zero deep-model
        cost, so a streaming re-plan only bills genuinely new frames.
        """
        return AdaptiveSamplingSession(
            self, sequence, model, ledger=ledger, engine=engine, budget=budget,
            known=known,
        )


class AdaptiveSamplingSession:
    """A resumable run of the MAST sampler over one sequence.

    Construction performs the uniform pass and builds the segment tree;
    :meth:`step` then spends adaptive budget in caller-controlled
    chunks, returning the ST-PC rewards of the frames it sampled.
    ``step(session.remaining)`` reproduces Alg. 2 exactly, and any
    chunking of the same total budget is bit-identical to the one-shot
    run, because each chunk replays the identical sequence of (select,
    detect, record) operations.

    ``budget`` bounds the total frames the session may ever sample;
    ``None`` uses the sequence's own paper budget
    (:meth:`MASTConfig.budget_for`).  A cross-sequence allocator passes
    the sequence length instead, so the root policy — not the local
    config — decides where the corpus-wide budget goes.

    ``known`` carries detections from an earlier epoch over the same
    sequence (session re-entry): carried frames cost nothing to
    "re-detect", while the selection trajectory — uniform pass, segment
    tree, rewards — is bit-identical to a fresh session, because
    detectors are deterministic per frame and the policy never iterates
    the detections dict, it only looks frames up by id.

    A live session follows a growing sequence with :meth:`grow`: the
    uniform grid continues into the new frames and the budget the growth
    accrued becomes steppable, with nothing already sampled re-drawn.
    Frames past the last grid point stay outside the tree until the grid
    reaches them.
    """

    def __init__(
        self,
        sampler: HierarchicalMultiAgentSampler,
        sequence: FrameSequence,
        model: DetectionModel,
        *,
        engine: InferenceEngine,
        ledger: CostLedger | None = None,
        budget: int | None = None,
        known: dict[int, ObjectArray] | None = None,
    ) -> None:
        config = sampler.config
        self._sampler = sampler
        self._sequence = sequence
        self._model = model
        self._engine = engine
        self.ledger = ledger if ledger is not None else CostLedger()
        self._set_budget(len(sequence), budget)
        uniform_budget = config.uniform_budget_for(self.base_budget)

        self._sampled, self._detections = sampler._uniform_phase(
            sequence, model, uniform_budget, self.ledger, engine, known=known
        )
        #: The last uniform point: :meth:`grow` continues the grid from it.
        self._last_grid = self._sampled[-1]
        self.rewards: list[float] = []
        self._exhausted = False
        self._sampled_set: set[int] = set(self._sampled)
        self._tree: SegmentTree | None = None
        self._plant()

    def _set_budget(self, n_frames: int, budget: int | None) -> None:
        config = self._sampler.config
        #: The sequence's own paper budget (``budget_fraction * n``);
        #: the uniform pass is always sized from this, per Alg. 2.
        self.base_budget = config.budget_for(n_frames)
        if budget is None:
            self.budget = self.base_budget
        else:
            require(budget >= 2, f"session budget must be >= 2, got {budget}")
            self.budget = min(int(budget), n_frames)

    def _plant(self) -> None:
        """Build the segment tree once there are two samples to bound it."""
        if self._tree is not None or len(self._sampled) < 2:
            return
        config = self._sampler.config
        self._tree = SegmentTree(
            self._sampled,
            branching=config.branching,
            max_depth=config.max_depth,
            ucb_c=config.ucb_c,
            alpha_r=config.alpha_r,
            rng=ensure_rng(config.seed, self._sampler.rng_stream, self._sequence.name),
        )

    # ------------------------------------------------------------------
    # Telemetry (read by the corpus budget allocator)
    # ------------------------------------------------------------------
    @property
    def sequence_name(self) -> str:
        return self._sequence.name

    @property
    def n_frames(self) -> int:
        return len(self._sequence)

    @property
    def frames_sampled(self) -> int:
        """Frames processed by the deep model so far (uniform + adaptive)."""
        return len(self._sampled)

    @property
    def detections(self) -> dict[int, ObjectArray]:
        """Every frame this session has paid for, sampled or not yet.

        A detection that resolved before a detector fault stays here, so
        the retry (or a re-plan re-entered with it as ``known=``) does
        not bill it again.
        """
        return self._detections

    @property
    def remaining(self) -> int:
        """Adaptive budget left before hitting the session's cap."""
        if self._tree is None or self._exhausted:
            return 0
        return max(0, self.budget - len(self._sampled))

    @property
    def can_sample(self) -> bool:
        """Whether another :meth:`step` could still sample frames."""
        return self.remaining > 0

    def mean_reward(self) -> float:
        """Mean adaptive reward per sampled frame (NaN before any step)."""
        if not self.rewards:
            return float("nan")
        return float(sum(self.rewards) / len(self.rewards))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def step(self, max_frames: int) -> list[float]:
        """Adaptively sample up to ``max_frames`` frames; return rewards.

        Each iteration is one round of Alg. 2: walk the UCB decisions to
        a leaf, detect its middle frame, score it with the reward, update
        the tree.  Returns fewer rewards than requested when the budget
        cap or the segment tree is exhausted (the latter marks the
        session unavailable).  If the detector raises, every frame it
        already returned stays in the session's detections; a new
        session re-entered with them (``known=``) replays the run and
        bills only the rest.
        """
        sampler = self._sampler
        ledger = self.ledger
        tree = self._tree
        before = len(self.rewards)
        for _ in range(min(int(max_frames), self.remaining)):
            assert tree is not None  # remaining > 0 implies a tree
            with ledger.measure(STAGE_POLICY):
                selection = tree.select(self._sampled_set.__contains__)
            if selection is None:
                self._exhausted = True  # every segment exhausted (budget ~ length)
                break
            path, frame_id = selection
            actual = self._engine.detect_one(
                self._sequence, frame_id, self._model,
                ledger=ledger, known=self._detections,
            )
            with ledger.measure(STAGE_POLICY):
                reward = sampler._adaptive_reward(
                    self._sequence, self._sampled, self._detections,
                    frame_id, actual, sampler.reward_kind, self._engine,
                )
                tree.record(path, frame_id, reward)
                bisect.insort(self._sampled, frame_id)
                self._sampled_set.add(frame_id)
                self.rewards.append(reward)
        return self.rewards[before:]

    def grow(self, sequence: FrameSequence, *, budget: int | None = None) -> None:
        """Follow ``sequence`` (this session's sequence plus new frames).

        The uniform grid continues at its fixed stride
        ``round(1 / (beta * budget_fraction))`` from the last grid point:
        the points that land in the new frames are detected and join the
        tree as first-level segments, as the uniform pass's do.  Nothing
        sampled is re-drawn and the tree's RNG stream continues.  The
        paper budget becomes ``budget_for(len(sequence))`` and the cap
        ``budget`` (``None``: that paper budget); the adaptive budget the
        growth accrued is left for :meth:`step`.

        Every detection resolves before any state changes: a detector
        fault leaves the session at its old length, with each frame it
        paid for kept in :attr:`detections`.
        """
        require(
            sequence.name == self._sequence.name and len(sequence) >= self.n_frames,
            f"cannot grow {self._sequence.name!r} ({self.n_frames} frames) into "
            f"{sequence.name!r} ({len(sequence)} frames)",
        )
        config = self._sampler.config
        stride = max(1, round(1 / (config.beta * config.budget_fraction)))
        grid = list(range(self._last_grid + stride, len(sequence), stride))
        self._engine.detect_wave(
            sequence, grid, self._model, ledger=self.ledger, known=self._detections
        )
        self._sequence = sequence
        self._set_budget(len(sequence), budget)
        if grid:
            self._last_grid = grid[-1]
            self._sampled.extend(grid)
            self._sampled_set.update(grid)
            if self._tree is None:
                self._plant()
            else:
                self._tree.append(grid)
        self._exhausted = False

    def reoffer(self) -> None:
        """Offer the session to the next allocator run again.

        :meth:`step` marks a session whose tree ran dry unavailable;
        :meth:`grow` clears the mark, and so does a corpus epoch that
        published the session's new samples, so the next run may pull it
        once more (an empty chunk marks it again).
        """
        self._exhausted = False

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Roll the session back to its entry state if the block raises.

        The tree (a :meth:`~repro.core.segment_tree.SegmentTree.clone`
        taken on entry: every node and the RNG state), samples, rewards
        and budgets are restored; detections are not, so a retry bills
        none of the frames the failed attempt already paid for.
        """
        saved = dict(vars(self))
        saved.update(
            _tree=self._tree.clone() if self._tree is not None else None,
            _sampled=list(self._sampled),
            _sampled_set=set(self._sampled_set),
            rewards=list(self.rewards),
        )
        try:
            yield
        except BaseException:
            vars(self).update(saved)
            raise

    def result(self) -> SamplingResult:
        """Snapshot the session as a :class:`SamplingResult`.

        The snapshot owns its detections dict, so a later :meth:`grow`
        or :meth:`step` never changes a result already published.
        """
        policy_info: dict = {
            "sampler": self._sampler.name,
            "reward_kind": self._sampler.reward_kind,
        }
        if self._tree is not None:
            depth, nodes, leaves = self._tree.shape()
            policy_info.update(tree_depth=depth, tree_nodes=nodes, tree_leaves=leaves)
        return SamplingResult(
            sequence_name=self._sequence.name,
            n_frames=self.n_frames,
            timestamps=self._sequence.timestamps,
            budget=self.budget,
            sampled_ids=np.asarray(self._sampled, dtype=np.int64),
            detections=dict(self._detections),
            rewards=list(self.rewards),
            ledger=self.ledger,
            policy_info=policy_info,
        )


def _confident_count(objects: ObjectArray, threshold: float) -> int:
    """Number of detections at or above the confidence threshold."""
    return int(np.count_nonzero(objects.scores >= threshold))
