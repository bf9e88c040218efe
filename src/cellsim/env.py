"""Episodic control environment for per-station association thresholds.

State: per-station thresholds, user positions (exposed through the
normalized SNR matrix), and each user's utility from the previous step.
The observation concatenates thresholds, the flattened SNR matrix
(station-major), and previous utilities; every entry lies in [0, 1].

Actions: one delta in {-1, 0, +1} per station, encoded as a single base-3
integer in [0, 3**n_bs).  A step applies the deltas (thresholds move by
``threshold_step`` and clip to [0, 1]), advances user motion, recomputes
the SNR matrix, and emits the mean-utility reward.  Fading, when enabled,
perturbs only the reward path; the state SNR matrix stays clean.

Reset derives three independent RNG streams from the seed: mobility (one
child stream per user), fading, and policy noise.  Everything downstream
is a pure function of (config, seed, actions), which is what makes
collected trajectories reproducible byte for byte.  The next motion state
and SNR matrix do not depend on the action: ``preview_step_rewards``
advances the per-user streams once and caches them, with every action's
fading-free reward, for the next ``step``; ``clone()`` copies that cache.
"""

from __future__ import annotations

import copy

import numpy as np

from . import mac, mobility, radio
from .config import NetworkConfig

__all__ = ["CellularNetworkEnv", "decode_action", "encode_action"]


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


def encode_action(deltas, n_bs: int | None = None) -> int:
    """Inverse of ``decode_action``."""
    deltas = tuple(int(d) for d in deltas)
    if n_bs is not None and len(deltas) != n_bs:
        raise ValueError(f"expected {n_bs} deltas, got {len(deltas)}")
    if any(d not in (-1, 0, 1) for d in deltas):
        raise ValueError("deltas must lie in {-1, 0, +1}")
    n = len(deltas)
    return sum((d + 1) * 3 ** (n - 1 - i) for i, d in enumerate(deltas))


class CellularNetworkEnv:
    """Multi-cell network with threshold-based user association."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._bs = np.asarray(cfg.bs_positions, dtype=float)
        self._action_deltas = np.array(
            [decode_action(a, cfg.n_bs) for a in range(cfg.n_actions)], dtype=float)
        self._motion = None
        self._upcoming = None
        self._done = True

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh episode; returns the initial observation."""
        root = np.random.SeedSequence(seed)
        mobility_ss, fading_ss, policy_ss = root.spawn(3)
        self._ue_rngs = [np.random.Generator(np.random.PCG64(ss))
                         for ss in mobility_ss.spawn(self.cfg.n_ues)]
        self._rng_fading = np.random.Generator(np.random.PCG64(fading_ss))
        self._rng_policy = np.random.Generator(np.random.PCG64(policy_ss))
        self._motion = mobility.init_positions(self.cfg.mobility, self.cfg.n_ues,
                                               self._ue_rngs)
        self._upcoming = None
        self._thresholds = np.full(self.cfg.n_bs, 0.5)
        self._snr = radio.snr_matrix(self._bs, self._motion.position, self.cfg.radio)
        # Seed the previous-utility slot with the utilities of the initial
        # state so the first observation already has the in-episode shape.
        _, utils = mac.reward(self._snr, self._thresholds, self.cfg.fading,
                              self.cfg.utility, self._rng_fading)
        self._prev_utilities = utils
        self._t = 0
        self._done = False
        return self._observation()

    def step(self, action: int):
        """Apply one action; returns (obs, reward, done, info)."""
        if self._done:
            raise RuntimeError("episode is done; call reset() first")
        deltas = np.asarray(decode_action(action, self.cfg.n_bs), dtype=float)
        self._thresholds = np.clip(
            self._thresholds + deltas * self.cfg.threshold_step, 0.0, 1.0)
        self._motion, self._snr, previewed = self._next_state()
        self._upcoming = None
        if previewed is not None and self.cfg.fading.kind == "none":
            # The preview already holds this action's fading-free reward.
            code = int(action)
            rew, utils = float(previewed[0][code]), previewed[1][code]
        else:
            rew, utils = mac.reward(self._snr, self._thresholds, self.cfg.fading,
                                    self.cfg.utility, self._rng_fading)
        self._prev_utilities = utils
        self._t += 1
        self._done = self._t >= self.cfg.horizon
        info = {"utilities": utils.copy(), "thresholds": self._thresholds.copy()}
        return self._observation(), rew, self._done, info

    def clone(self) -> "CellularNetworkEnv":
        """Deep copy, RNG streams and cached next state included; stepping
        the clone leaves the original untouched."""
        return copy.deepcopy(self)

    # -- policy support ------------------------------------------------

    def preview_step_rewards(self) -> np.ndarray:
        """Fading-free one-step reward for every action, without advancing.

        Every action sees the same upcoming positions, cached for ``step``.
        """
        if self._done or self._motion is None:
            raise RuntimeError("environment must be mid-episode to preview")
        motion, snr, previewed = self._next_state()
        if previewed is None:
            taus = np.clip(self._thresholds[None, :]
                           + self._action_deltas * self.cfg.threshold_step, 0.0, 1.0)
            previewed = mac.reward_terms(snr, taus, self.cfg.utility)
            self._upcoming = (motion, snr, previewed)
        return previewed[0].copy()

    def _next_state(self):
        """(motion, SNR matrix, preview or None) of the next step, computed
        once; stepping motion advances the per-user streams."""
        if self._upcoming is None:
            motion = mobility.step_motion(self._motion, self.cfg.mobility, self._ue_rngs)
            snr = radio.snr_matrix(self._bs, motion.position, self.cfg.radio)
            self._upcoming = (motion, snr, None)
        return self._upcoming

    # -- views ---------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return self.cfg.n_actions

    @property
    def obs_dim(self) -> int:
        return self.cfg.obs_dim

    @property
    def t(self) -> int:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    @property
    def thresholds(self) -> np.ndarray:
        return self._thresholds.copy()

    @property
    def snr(self) -> np.ndarray:
        return self._snr.copy()

    @property
    def ue_positions(self) -> np.ndarray:
        return self._motion.position.copy()

    @property
    def policy_rng(self) -> np.random.Generator:
        """Policy-noise stream derived from the episode seed."""
        return self._rng_policy

    def _observation(self) -> np.ndarray:
        return np.concatenate([self._thresholds, self._snr.ravel(),
                               self._prev_utilities]).astype(float)
