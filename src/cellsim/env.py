"""Episodic control environment for per-station association thresholds.

State: per-station thresholds, user positions (exposed through the
normalized SNR matrix), and each user's utility from the previous step.
The observation concatenates thresholds, the flattened SNR matrix
(station-major), and previous utilities; every entry lies in [0, 1].

Actions: one delta in {-1, 0, +1} per station, encoded as a single base-3
integer in [0, 3**n_bs).  A step applies the deltas (thresholds move by
``threshold_step`` and clip to [0, 1]), moves on to the next user positions
and SNR matrix, and emits the mean-utility reward.  Fading, when enabled,
perturbs only the reward path; the state SNR matrix stays clean.

``EpisodeBatch`` is the one implementation of reset, step, preview and
observation.  It holds B episodes of one config and steps them in
lockstep: positions and waypoints are (B, n_ues, 2) arrays, thresholds
(B, n_bs) and the SNR matrix (B, n_bs, n_ues), and each stage is one numpy
pass over the whole batch.  The horizon is fixed, so all B episodes end
together.  A policy acts on the batch itself: ``policy.act(batch)`` reads
``policy_rngs``, ``cfg.n_actions`` and ``preview_step_rewards()`` and
returns one action code per episode; it may keep actions drawn ahead in
``policy_plan``, which reset clears.  ``CellularNetworkEnv`` is the B=1
view, and ``policy(env)`` is ``act`` on the batch behind it.

Random streams stay per episode.  Reset checks that every seed is
non-negative, then derives three independent streams from each episode's
seed: mobility (one child stream per user), fading, and policy noise.
Motion and fading do not depend on the actions, so reset draws the whole
exogenous episode: each user draws its start and ``horizon + 1`` waypoints
from its own stream in one chunk, reset steps every user ``horizon`` times
along that route, and keeps the positions and SNR matrices of every step;
a faded episode also draws all its (n_bs, n_ues) |H|^2 blocks from its own
fading stream, one for the reset's reward and one per step, step-major, in
the order per-step draws would take them.
Step and preview only index these rows, and the preview draws nothing.  So
an episode is a pure function of (config, seed, actions), whatever batch it
runs in, which is what makes collected trajectories reproducible byte for
byte.  ``preview_step_rewards`` keeps every action's fading-free reward
for the next ``step``.
"""

from __future__ import annotations

import numpy as np

from . import mac, mobility, radio
from .config import NetworkConfig

__all__ = ["CellularNetworkEnv", "decode_action"]


def decode_action(action: int, n_bs: int) -> tuple:
    """Map an action code to one threshold delta in {-1, 0, +1} per station.

    Codes are base-3 with the most significant digit on station 0:
    0 decodes to all -1, the middle code to all 0, the top code to all +1.
    """
    a = int(action)
    n_actions = 3 ** n_bs
    if not 0 <= a < n_actions:
        raise ValueError(f"action {action} outside [0, {n_actions})")
    return tuple((a // 3 ** (n_bs - 1 - i)) % 3 - 1 for i in range(n_bs))


def _unit(x):
    """Clip onto [0, 1]; the same values as ``np.clip(x, 0.0, 1.0)`` at a
    third of its call cost on small arrays."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


class EpisodeBatch:
    """B episodes of one config, stepped in lockstep."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._bs = np.asarray(cfg.bs_positions, dtype=float)
        self._moves = cfg.threshold_step * np.array(
            [decode_action(a, cfg.n_bs) for a in range(cfg.n_actions)])  # (n_actions, n_bs)
        # Each station's threshold move under the deltas -1, 0 and +1.
        self._shifts = np.array([[-1.0], [0.0], [1.0]]) * cfg.threshold_step
        self._positions = None  # until the first reset
        self._done = True

    def reset(self, seeds) -> np.ndarray:
        """Start one fresh episode per non-negative seed; returns the
        (B, obs_dim) initial observations."""
        cfg = self.cfg
        low = min(seeds)
        if low < 0:
            raise ValueError(f"seed must be a non-negative integer, got {low}")
        ue_rngs, self.policy_rngs, power = [], [], []
        faded = cfg.fading.kind != "none"
        for seed in seeds:
            mobility_ss, fading_ss, policy_ss = np.random.SeedSequence(seed).spawn(3)
            ue_rngs.append([np.random.default_rng(ss) for ss in mobility_ss.spawn(cfg.n_ues)])
            if faded:
                power.append(radio.episode_fading_power(
                    cfg.fading, np.random.default_rng(fading_ss), cfg.horizon + 1,
                    (cfg.n_bs, cfg.n_ues)))
            self.policy_rngs.append(np.random.default_rng(policy_ss))
        # (B, horizon + 1, n_bs, n_ues) |H|^2: row 0 for reset, t + 1 for step t.
        self._power = np.array(power) if faded else None
        # A policy's actions drawn ahead for the rest of the episode.
        self.policy_plan = None
        motion = mobility.init_positions(cfg.mobility, ue_rngs, cfg.horizon)
        positions = [motion.position]
        for _ in range(cfg.horizon):
            motion = mobility.step_motion(motion, cfg.mobility)
            positions.append(motion.position)
        # (horizon + 1, B, n_ues, 2) positions and (horizon + 1, B, n_bs,
        # n_ues) SNR matrices, rows laid out as in ``_power``.
        self._positions = np.array(positions)
        self._snrs = radio.snr_matrix(self._bs, self._positions, cfg.radio)
        self._preview = None
        self._rows = np.arange(len(ue_rngs))
        self._thresholds = np.full((len(self._rows), cfg.n_bs), 0.5)
        # Seed the previous-utility slot with the utilities of the initial
        # state so the first observation already has the in-episode shape.
        _, self._prev_utilities = mac.reward(self._snrs[0], self._thresholds, cfg.utility,
                                             self._fading_power(0))
        self._t = 0
        self._done = False
        return self._observation()

    def step(self, actions):
        """Apply one action code per episode; returns (obs (B, obs_dim),
        rewards (B,), done)."""
        if self._done:
            raise RuntimeError("episode is done; call reset() first")
        self._thresholds = _unit(self._thresholds + self._moves[actions])
        previewed, self._preview = self._preview, None
        if previewed is not None and self.cfg.fading.kind == "none":
            # The preview already holds each action's fading-free reward.
            pick = self._rows, actions
            rew, utils = previewed[0][pick], previewed[1][pick]
        else:
            rew, utils = mac.reward(self._snrs[self._t + 1], self._thresholds,
                                    self.cfg.utility, self._fading_power(self._t + 1))
        self._prev_utilities = utils
        self._t += 1
        self._done = self._t >= self.cfg.horizon
        return self._observation(), rew, self._done

    def preview_step_rewards(self) -> np.ndarray:
        """Fading-free one-step reward of every action in every episode,
        (B, n_actions), without advancing.

        Every action sees the same upcoming positions; the result is kept
        for ``step``.
        """
        if self._done:
            raise RuntimeError("environment must be mid-episode to preview")
        if self._preview is None:
            taus = _unit(self._thresholds[:, None, :] + self._shifts)  # (B, 3, n_bs)
            self._preview = mac.action_rewards(self._snrs[self._t + 1], taus, self.cfg.utility)
        return self._preview[0]

    def _fading_power(self, row):
        """Every episode's (B, n_bs, n_ues) |H|^2 of one reward, or None."""
        return None if self._power is None else self._power[:, row]

    def _observation(self) -> np.ndarray:
        return np.concatenate([self._thresholds,
                               self._snrs[self._t].reshape(len(self._rows), -1),
                               self._prev_utilities], axis=-1)


class CellularNetworkEnv:
    """Multi-cell network with threshold-based user association: one
    episode, the B=1 view of ``EpisodeBatch``."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._batch = EpisodeBatch(cfg)

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh episode; returns the initial observation."""
        return self._batch.reset((seed,))[0]

    def step(self, action: int):
        """Apply one action; returns (obs, reward, done, info)."""
        code = int(action)
        if not 0 <= code < self.cfg.n_actions:
            raise ValueError(f"action {action} outside [0, {self.cfg.n_actions})")
        obs, rew, done = self._batch.step(np.array([code]))
        info = {"utilities": self._batch._prev_utilities[0].copy(),
                "thresholds": self._batch._thresholds[0].copy()}
        return obs[0], float(rew[0]), done, info

    # -- policy support ------------------------------------------------

    def preview_step_rewards(self) -> np.ndarray:
        """Fading-free one-step reward for every action, without advancing.

        Every action sees the same upcoming positions.
        """
        return self._batch.preview_step_rewards()[0].copy()

    # -- views ---------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return self.cfg.n_actions

    @property
    def obs_dim(self) -> int:
        return self.cfg.obs_dim

    @property
    def done(self) -> bool:
        return self._batch._done

    @property
    def ue_positions(self) -> np.ndarray:
        if self._batch._positions is None:
            raise RuntimeError("no episode yet; call reset() first")
        return self._batch._positions[self._batch._t, 0].copy()
