"""Unit tests for the UCB agent."""

import math

import numpy as np
import pytest

from repro.core import UCBAgent, ucb_scores
from tests.spec.mast import ucb


class TestUcbScore:
    def test_unvisited_is_infinite(self):
        assert ucb_scores([0.0], [0], 10, c=2.0)[0] == ucb(0.0, 0, 10, 2.0) == math.inf

    def test_formula(self):
        (value,) = ucb_scores([1.0], [4], 100, c=2.0)
        assert value == ucb(1.0, 4, 100, 2.0)
        assert value == pytest.approx(1.0 + 2.0 * math.sqrt(2 * math.log(100) / 4))

    def test_zero_total_returns_reward(self):
        assert ucb_scores([0.7], [3], 0, c=2.0)[0] == ucb(0.7, 3, 0, 2.0) == 0.7

    def test_exploration_bonus_shrinks_with_pulls(self):
        few, many = ucb_scores([0.0, 0.0], [1, 50], 100, c=2.0)
        assert few > many


class TestUCBAgent:
    def test_validation(self):
        with pytest.raises(ValueError):
            UCBAgent(0)
        with pytest.raises(ValueError):
            UCBAgent(2, c=0)
        with pytest.raises(ValueError):
            UCBAgent(2, alpha=1.5)

    def test_visits_all_arms_first(self):
        agent = UCBAgent(4, rng=np.random.default_rng(0))
        seen = set()
        for _ in range(4):
            arm = agent.select()
            seen.add(arm)
            agent.update(arm, 0.0)
        assert seen == {0, 1, 2, 3}

    def test_exploits_best_arm(self):
        agent = UCBAgent(3, c=0.1, alpha=0.5, rng=np.random.default_rng(0))
        rewards = [0.0, 1.0, 0.0]
        for _ in range(60):
            arm = agent.select()
            agent.update(arm, rewards[arm])
        assert agent.pulls[1] > agent.pulls[0]
        assert agent.pulls[1] > agent.pulls[2]

    def test_ema_update_is_eq2(self):
        agent = UCBAgent(1, alpha=0.3)
        agent.update(0, 1.0)
        assert agent.rewards[0] == pytest.approx(0.3)
        agent.update(0, 1.0)
        assert agent.rewards[0] == pytest.approx(0.3 * 1.0 + 0.7 * 0.3)

    def test_available_mask(self):
        agent = UCBAgent(3, rng=np.random.default_rng(0))
        available = np.array([False, True, False])
        for _ in range(5):
            assert agent.select(available) == 1
            agent.update(1, 0.0)

    def test_no_available_arm_raises(self):
        agent = UCBAgent(2)
        with pytest.raises(ValueError, match="available"):
            agent.select(np.array([False, False]))

    def test_bad_mask_shape(self):
        agent = UCBAgent(2)
        with pytest.raises(ValueError, match="shape"):
            agent.select(np.array([True]))

    def test_update_out_of_range(self):
        agent = UCBAgent(2)
        with pytest.raises(ValueError):
            agent.update(5, 1.0)

    def test_higher_c_explores_more(self):
        """A larger exploration constant spreads pulls more evenly."""

        def spread(c):
            agent = UCBAgent(3, c=c, alpha=0.5, rng=np.random.default_rng(1))
            rewards = [0.0, 1.0, 0.0]
            for _ in range(100):
                arm = agent.select()
                agent.update(arm, rewards[arm])
            return agent.pulls.min() / agent.pulls.max()

        assert spread(8.0) >= spread(0.2)
