"""Cross-sequence budget allocation policies.

The single-sequence pipeline gives sequence ``i`` its own paper budget
``B_i = budget_fraction * n_i``.  At corpus scale the interesting
question is where the *adaptive* share of the total budget should go:
sequences differ in how much their content changes per frame, so a
frame spent on a volatile drive buys more index accuracy than one spent
on a static highway.

Two policies over the same total budget ``sum_i B_i``:

* :class:`UniformAllocator` — the baseline: every sequence spends its
  own ``B_i``, exactly as independent single-sequence runs would;
* :class:`UCBAllocator` — a root-level UCB agent (one arm per
  sequence, the same rule as the paper's segment-tree agents) whose
  reward for an arm is the mean ST-PC reward per frame of the chunk it
  just sampled there.  Sequences whose frames keep earning high
  deviation rewards receive more of the shared pool.

Both drive :class:`~repro.core.sampler.AdaptiveSamplingSession`
objects: the uniform pass of every session is always its paper-sized
pass (so indexes stay well-conditioned), and only the adaptive
remainder is steerable.  A run spends what the sessions have not spent
yet, so re-running a policy over live sessions that grew since its last
run spends only the budget their growth accrued.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.core.config import MASTConfig
from repro.core.sampler import AdaptiveSamplingSession
from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_in

__all__ = [
    "AllocationReport",
    "BudgetAllocator",
    "POLICIES",
    "UniformAllocator",
    "UCBAllocator",
    "make_allocator",
]

#: Policy names :func:`make_allocator` accepts.
POLICIES = ("uniform", "ucb")


class AllocationReport:
    """What a budget allocation run did, per sequence.

    ``frames_by_sequence`` counts every deep-model frame (uniform +
    adaptive); ``adaptive_by_sequence`` only the steerable share.
    """

    def __init__(
        self,
        policy: str,
        sessions: Sequence[AdaptiveSamplingSession],
        *,
        rounds: int,
        uniform_frames: dict[str, int],
    ) -> None:
        self.policy = policy
        self.rounds = rounds
        self.frames_by_sequence = {
            s.sequence_name: s.frames_sampled for s in sessions
        }
        self.uniform_by_sequence = dict(uniform_frames)
        self.adaptive_by_sequence = {
            name: self.frames_by_sequence[name] - uniform_frames[name]
            for name in self.frames_by_sequence
        }
        self.mean_reward_by_sequence = {
            s.sequence_name: s.mean_reward() for s in sessions
        }
        self.total_frames = sum(self.frames_by_sequence.values())

    def as_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "rounds": self.rounds,
            "total_frames": self.total_frames,
            "frames_by_sequence": dict(self.frames_by_sequence),
            "adaptive_by_sequence": dict(self.adaptive_by_sequence),
            "mean_reward_by_sequence": {
                name: (None if np.isnan(reward) else float(reward))
                for name, reward in self.mean_reward_by_sequence.items()
            },
        }

    def describe(self) -> str:
        lines = [f"policy={self.policy} total_frames={self.total_frames}"]
        for name, frames in self.frames_by_sequence.items():
            reward = self.mean_reward_by_sequence[name]
            reward_text = "n/a" if np.isnan(reward) else f"{reward:.4f}"
            lines.append(
                f"  {name}: {frames} frames "
                f"({self.adaptive_by_sequence[name]} adaptive, "
                f"mean reward {reward_text})"
            )
        return "\n".join(lines)


class BudgetAllocator(ABC):
    """Decides how corpus sessions spend the shared adaptive budget."""

    name: str = "allocator"

    def session_budget(self, n_frames: int) -> int | None:
        """Budget cap to open a session of an ``n_frames`` sequence with.

        ``None`` caps the session at its own paper budget (the uniform
        baseline); allocators that move budget between sequences return
        a larger cap and enforce the corpus-wide total themselves.
        """
        return None

    @abstractmethod
    def run(
        self, sessions: Sequence[AdaptiveSamplingSession]
    ) -> AllocationReport:
        """Spend the corpus's adaptive budget across ``sessions``.

        The shared pool is always ``sum_i (B_i - spent_i)`` — after a
        fresh uniform pass, the same total an independent per-sequence
        run would spend — so policies are comparable at equal cost.
        """


def _uniform_frames(
    sessions: Sequence[AdaptiveSamplingSession],
) -> dict[str, int]:
    """Frames already spent by the construction-time uniform passes."""
    return {s.sequence_name: s.frames_sampled for s in sessions}


def _adaptive_pool(sessions: Sequence[AdaptiveSamplingSession]) -> int:
    """Total steerable budget: paper budgets minus every frame spent.

    A session over its own paper budget (UCB moved frames to it earlier)
    shrinks the pool by its surplus, so live sessions re-run every epoch
    never spend past the corpus budget.
    """
    return max(0, sum(s.base_budget - s.frames_sampled for s in sessions))


class UniformAllocator(BudgetAllocator):
    """Each sequence spends exactly its own paper budget."""

    name = "uniform"

    def run(
        self, sessions: Sequence[AdaptiveSamplingSession]
    ) -> AllocationReport:
        uniform_frames = _uniform_frames(sessions)
        rounds = 0
        for session in sessions:
            budget = max(0, session.base_budget - session.frames_sampled)
            if budget > 0:
                session.step(budget)
                rounds += 1
        return AllocationReport(
            self.name, sessions, rounds=rounds, uniform_frames=uniform_frames
        )


class UCBAllocator(BudgetAllocator):
    """Root-level UCB agent over sequences (reward-per-frame arms).

    Sessions must be opened at capacity (:meth:`session_budget` returns
    the sequence length) so the *agent*, not each sequence's local cap,
    decides where the shared pool goes.  Each round pulls one arm and
    spends a ``round_size`` chunk there; the chunk's mean ST-PC reward
    updates the arm via the EMA of Eq. 2.  With one sequence the agent
    has a single arm and the run degenerates to chunked stepping, which
    is bit-identical to the uniform policy (and to the single-sequence
    pipeline).
    """

    name = "ucb"

    def __init__(self, config: MASTConfig, *, round_size: int = 8) -> None:
        require(round_size >= 1, f"round_size must be >= 1, got {round_size}")
        self.config = config
        self.round_size = int(round_size)

    def session_budget(self, n_frames: int) -> int | None:
        return max(2, n_frames)

    def run(
        self, sessions: Sequence[AdaptiveSamplingSession]
    ) -> AllocationReport:
        from repro.core.bandit import UCBAgent

        uniform_frames = _uniform_frames(sessions)
        pool = _adaptive_pool(sessions)
        agent = UCBAgent(
            max(1, len(sessions)),
            c=self.config.ucb_c,
            alpha=self.config.alpha_r,
            rng=ensure_rng(self.config.seed, "corpus-allocator"),
        )
        rounds = 0
        while pool > 0:
            available = np.array([s.can_sample for s in sessions], dtype=bool)
            if not available.any():
                break
            arm = agent.select(available)
            session = sessions[arm]
            chunk = min(self.round_size, pool, session.remaining)
            rewards = session.step(chunk)
            rounds += 1
            pool -= len(rewards)
            if rewards:
                agent.update(arm, float(np.mean(rewards)))
            # An empty chunk means the arm's segment tree is exhausted;
            # its can_sample flag drops and the mask excludes it.
        return AllocationReport(
            self.name, sessions, rounds=rounds, uniform_frames=uniform_frames
        )


def make_allocator(
    policy: str, config: MASTConfig, *, round_size: int = 8
) -> BudgetAllocator:
    """Build an allocator by policy name (``uniform`` / ``ucb``)."""
    require_in(policy, POLICIES, "policy")
    if policy == "uniform":
        return UniformAllocator()
    return UCBAllocator(config, round_size=round_size)
