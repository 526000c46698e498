"""Property tests: the UCB array kernel equals the spec's UCB rule bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UCBAgent, ucb_scores
from tests.spec.mast import ucb

finite_rewards = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(
    arms=st.lists(
        st.tuples(finite_rewards, st.integers(min_value=0, max_value=10**6)),
        min_size=1,
        max_size=64,
    ),
    n_total=st.integers(min_value=0, max_value=10**9),
    c=st.floats(min_value=0.0, max_value=1e3, exclude_min=True, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_ucb_scores_equal_scalar_rule(arms, n_total, c):
    rewards = np.array([reward for reward, _ in arms])
    visits = np.array([n for _, n in arms], dtype=np.int64)
    values = ucb_scores(rewards, visits, n_total, c)
    for i, (reward, n_selected) in enumerate(arms):
        assert values[i] == ucb(reward, n_selected, n_total, c)


class _ScalarLoopAgent(UCBAgent):
    """``UCBAgent.scores`` as a per-arm loop over the spec's UCB rule."""

    def scores(self) -> np.ndarray:
        values = np.empty(self.n_arms)
        for arm in range(self.n_arms):
            values[arm] = ucb(
                float(self.rewards[arm]), int(self.pulls[arm]), self.total_pulls, self.c
            )
        return values


@pytest.mark.parametrize("masked", [False, True], ids=["all-arms", "masked"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_agent_matches_scalar_reference(seed, masked):
    n_arms = 400
    agents = [
        cls(n_arms, c=2.0, alpha=0.3, rng=np.random.default_rng(seed))
        for cls in (UCBAgent, _ScalarLoopAgent)
    ]
    world = np.random.default_rng(1000 + seed)
    means = world.normal(size=n_arms)
    # One pull of every arm first, so selections are decided by the
    # scores rather than by ties among unvisited arms.
    for arm in range(n_arms):
        reward = float(means[arm] + world.normal())
        for agent in agents:
            agent.update(arm, reward)
    available = world.random(n_arms) < 0.25 if masked else None
    for _ in range(300):
        arm, reference_arm = (agent.select(available) for agent in agents)
        assert arm == reference_arm
        reward = float(means[arm] + world.normal())
        for agent in agents:
            agent.update(arm, reward)
    fast, reference = agents
    assert np.array_equal(fast.scores(), reference.scores())
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state
