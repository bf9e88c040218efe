"""Behavioral policies used to generate and evaluate trajectories.

Three tiers: a greedy one-step-lookahead expert, an epsilon-noisy medium
policy built on the expert, and a uniform random baseline.  Each tier has
one decision rule, ``act(batch)``, over an ``EpisodeBatch`` stepped in
lockstep: it reads the batch's per-episode policy-noise streams
(``batch.policy_rngs``), the number of actions (``batch.cfg.n_actions``)
and the (B, n_actions) fading-free reward preview
(``batch.preview_step_rewards()``), and returns one action code per
episode.  ``policy(env)`` is the B=1 case on a live ``CellularNetworkEnv``.
The stochastic tiers draw from each episode's own stream, and the preview
draws from none of them, so a trajectory stays a pure function of (config,
seed) whatever batch it runs in.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_MEDIUM_EPSILON

__all__ = ["RandomPolicy", "GreedyExpertPolicy", "MediumPolicy", "make_policy"]


def _single(policy, env) -> int:
    """``policy.act`` on one live environment."""
    return int(policy.act(env._batch)[0])


class RandomPolicy:
    """Uniform over all action codes."""

    policy_id = "random"

    def act(self, batch) -> np.ndarray:
        n_actions = batch.cfg.n_actions
        return np.array([g.integers(n_actions) for g in batch.policy_rngs], dtype=np.int64)

    def __call__(self, env) -> int:
        return _single(self, env)


class GreedyExpertPolicy:
    """Argmax of the fading-free one-step reward; ties go to the lowest code."""

    policy_id = "expert"

    def act(self, batch) -> np.ndarray:
        return batch.preview_step_rewards().argmax(axis=-1)

    def __call__(self, env) -> int:
        return _single(self, env)


class MediumPolicy:
    """Expert with probability 1 - epsilon, uniform random otherwise."""

    policy_id = "medium"

    def __init__(self, epsilon: float = DEFAULT_MEDIUM_EPSILON):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon

    def act(self, batch) -> np.ndarray:
        # The expert's argmax first, then each episode's coin and, on the
        # coin, its random action, both from that episode's own stream.
        actions = batch.preview_step_rewards().argmax(axis=-1)
        n_actions = batch.cfg.n_actions
        for b, g in enumerate(batch.policy_rngs):
            if g.random() < self.epsilon:
                actions[b] = g.integers(n_actions)
        return actions

    def __call__(self, env) -> int:
        return _single(self, env)


def make_policy(name: str, epsilon: float = DEFAULT_MEDIUM_EPSILON):
    """Build a policy from its tier name; ``epsilon`` must lie in [0, 1]
    whatever the tier."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if name == "expert":
        return GreedyExpertPolicy()
    if name == "medium":
        return MediumPolicy(epsilon=epsilon)
    if name == "random":
        return RandomPolicy()
    raise ValueError(f"unknown policy {name!r}")
