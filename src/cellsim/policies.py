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
    """Uniform over all action codes.

    Its first ``act`` in an episode draws each episode's actions for every
    remaining step in one call on that episode's stream, the same numbers
    as one draw per step, and keeps them in ``batch.policy_plan``; later
    calls read the current step's row.  So two ``act`` calls in one step
    return the same actions.
    """

    policy_id = "random"

    def act(self, batch) -> np.ndarray:
        if batch._done:
            raise RuntimeError("environment must be mid-episode to act")
        t = batch._t
        if batch.policy_plan is None:
            n_actions, left = batch.cfg.n_actions, batch.cfg.horizon - t
            batch.policy_plan = t, np.stack([g.integers(n_actions, size=left)
                                             for g in batch.policy_rngs], axis=1)
        start, plan = batch.policy_plan
        return plan[t - start]

    __call__ = _single


class GreedyExpertPolicy:
    """Argmax of the fading-free one-step reward; ties go to the lowest code."""

    policy_id = "expert"

    def act(self, batch) -> np.ndarray:
        return batch.preview_step_rewards().argmax(axis=-1)

    __call__ = _single


class MediumPolicy:
    """Expert with probability 1 - epsilon, uniform random otherwise."""

    policy_id = "medium"

    def __init__(self, epsilon: float = DEFAULT_MEDIUM_EPSILON):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon

    def act(self, batch) -> np.ndarray:
        return self._coins(batch, batch.preview_step_rewards().argmax(axis=-1), 0)

    def _coins(self, batch, actions, start: int) -> np.ndarray:
        """Overwrite ``actions``, the expert's argmax, from episode ``start``
        on: each episode's coin and, on the coin, its random action, both
        from that episode's own stream.  Episodes before ``start`` draw
        nothing."""
        n_actions = batch.cfg.n_actions
        for b, g in enumerate(batch.policy_rngs[start:], start):
            if g.random() < self.epsilon:
                actions[b] = g.integers(n_actions)
        return actions

    __call__ = _single


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
