"""Behavioral policies used to generate and evaluate trajectories.

Three tiers: a greedy one-step-lookahead expert, an epsilon-noisy medium
policy built on the expert, and a uniform random baseline.  Each tier has
one decision rule, ``act``, over a batch of episodes stepped in lockstep:
it takes one policy-noise stream per episode, the number of actions, and a
callable returning the (B, n_actions) fading-free reward preview, which it
calls only when some episode needs it.  ``policy(env)`` is the B=1 case on
a live ``CellularNetworkEnv``.  The stochastic tiers draw from each
episode's own stream, so a trajectory stays a pure function of (config,
seed) whatever batch it runs in.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_MEDIUM_EPSILON

__all__ = ["RandomPolicy", "GreedyExpertPolicy", "MediumPolicy", "make_policy"]


def _single(policy, env) -> int:
    """``policy.act`` on one live environment."""
    return int(policy.act((env.policy_rng,), env.n_actions,
                          lambda: env.preview_step_rewards()[None])[0])


class RandomPolicy:
    """Uniform over all action codes."""

    policy_id = "random"

    def act(self, rngs, n_actions: int, preview) -> np.ndarray:
        return np.array([g.integers(n_actions) for g in rngs], dtype=np.int64)

    def __call__(self, env) -> int:
        return _single(self, env)


class GreedyExpertPolicy:
    """Argmax of the fading-free one-step reward; ties go to the lowest code."""

    policy_id = "expert"

    def act(self, rngs, n_actions: int, preview) -> np.ndarray:
        return preview().argmax(axis=-1)

    def __call__(self, env) -> int:
        return _single(self, env)


class MediumPolicy:
    """Expert with probability 1 - epsilon, uniform random otherwise."""

    policy_id = "medium"

    def __init__(self, epsilon: float = DEFAULT_MEDIUM_EPSILON):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self._expert = GreedyExpertPolicy()

    def act(self, rngs, n_actions: int, preview) -> np.ndarray:
        # Each episode draws its coin, then its random action if the coin
        # says so; the preview runs only when some episode takes the expert.
        actions = np.zeros(len(rngs), dtype=np.int64)
        expert = np.zeros(len(rngs), dtype=bool)
        for b, g in enumerate(rngs):
            if g.random() < self.epsilon:
                actions[b] = g.integers(n_actions)
            else:
                expert[b] = True
        if expert.any():
            actions[expert] = self._expert.act(rngs, n_actions, preview)[expert]
        return actions

    def __call__(self, env) -> int:
        return _single(self, env)


def make_policy(name: str, epsilon: float = DEFAULT_MEDIUM_EPSILON):
    """Build a policy from its tier name."""
    if name == "expert":
        return GreedyExpertPolicy()
    if name == "medium":
        return MediumPolicy(epsilon=epsilon)
    if name == "random":
        return RandomPolicy()
    raise ValueError(f"unknown policy {name!r}")
