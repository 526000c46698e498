"""Upper-Confidence-Bound agents (paper §5.1, RL agent design).

Each non-leaf segment-tree node owns a UCB decision over its children.
The root, the one wide node (one child per uniform-pass segment), decides
with a :class:`UCBAgent` over whole arrays; an inner node scores its few
children in a loop.  The corpus allocator runs one agent over sequences.
All use the same rule: pick the arm maximizing

.. math:: v_k = r_k + c \\sqrt{2 \\ln N / N_k}

with unvisited arms taking precedence, and update expected rewards with
the exponential moving average of Eq. 2:
``r_t = (1 - alpha_r) r_{t-1} + alpha_r r_v``.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import require, require_positive

__all__ = ["ucb_scores", "UCBAgent"]


def ucb_scores(
    rewards: np.ndarray, visits: np.ndarray, n_total: int, c: float
) -> np.ndarray:
    """The UCB value of every arm; unvisited arms score ``+inf``.

    An arm's value is ``tests/spec/mast.py``'s ``ucb`` bit for bit: the
    log term is one Python scalar, and division and ``sqrt`` are
    correctly rounded.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    visits = np.asarray(visits)
    if n_total <= 0:
        values = rewards.copy()
    else:
        log_term = 2.0 * math.log(n_total)
        values = rewards + c * np.sqrt(log_term / np.maximum(visits, 1))
    values[visits <= 0] = math.inf
    return values


class UCBAgent:
    """A UCB(c) agent over a fixed set of arms with EMA reward tracking."""

    def __init__(
        self,
        n_arms: int,
        *,
        c: float = 2.0,
        alpha: float = 0.3,
        rng=None,
    ) -> None:
        require(n_arms >= 1, f"n_arms must be >= 1, got {n_arms}")
        require_positive(c, "c")
        require(0.0 <= alpha <= 1.0, f"alpha must be in [0, 1], got {alpha}")
        self.n_arms = int(n_arms)
        self.c = float(c)
        self.alpha = float(alpha)
        self.rewards = np.zeros(self.n_arms)
        self.pulls = np.zeros(self.n_arms, dtype=np.int64)
        self.total_pulls = 0
        self._rng = ensure_rng(rng, "ucb")

    # ------------------------------------------------------------------
    def scores(self) -> np.ndarray:
        """Current UCB value of every arm."""
        return ucb_scores(self.rewards, self.pulls, self.total_pulls, self.c)

    def select(self, available: np.ndarray | None = None) -> int:
        """Pick the arm with maximal UCB value among ``available`` arms.

        Ties (e.g. several unvisited arms) break uniformly at random.
        Raises ``ValueError`` if no arm is available.
        """
        values = self.scores()
        if available is not None:
            available = np.asarray(available, dtype=bool)
            if available.shape != (self.n_arms,):
                raise ValueError(
                    f"available mask must have shape ({self.n_arms},), "
                    f"got {available.shape}"
                )
            if not available.any():
                raise ValueError("no available arms to select from")
            values[~available] = -np.inf
        (best,) = (values == values.max()).nonzero()
        return int(best[self._rng.integers(len(best))])

    def add_arms(self, n_arms: int) -> None:
        """Append ``n_arms`` unvisited arms; the others keep their statistics."""
        self.n_arms += int(n_arms)
        self.rewards = np.concatenate([self.rewards, np.zeros(n_arms)])
        self.pulls = np.concatenate([self.pulls, np.zeros(n_arms, dtype=np.int64)])

    def clone(self, rng: np.random.Generator) -> UCBAgent:
        """An independent copy of the statistics that draws from ``rng``."""
        twin = copy.copy(self)
        twin.rewards, twin.pulls, twin._rng = self.rewards.copy(), self.pulls.copy(), rng
        return twin

    def update(self, arm: int, reward: float) -> None:
        """Record a pull of ``arm`` and fold ``reward`` in via Eq. 2."""
        require(0 <= arm < self.n_arms, f"arm {arm} out of range [0, {self.n_arms})")
        self.rewards[arm] = (1.0 - self.alpha) * self.rewards[arm] + self.alpha * float(
            reward
        )
        self.pulls[arm] += 1
        self.total_pulls += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UCBAgent(n_arms={self.n_arms}, c={self.c}, alpha={self.alpha}, "
            f"pulls={self.total_pulls})"
        )
