"""Episodic control environment for per-station association thresholds.

State: per-station thresholds, user positions (exposed through the
normalized SNR matrix), and each user's utility from the previous step.
The observation concatenates thresholds, the flattened SNR matrix
(station-major), and previous utilities; every entry lies in [0, 1].

Actions: one delta in {-1, 0, +1} per station, encoded as a single base-3
integer in [0, 3**n_bs).  A step applies the deltas (thresholds move by
``threshold_step`` and clip to [0, 1]), moves on to the next user positions
and SNR matrix, and emits the mean-utility reward.  Fading, when enabled,
perturbs only the reward path: it scales the SNR entering the rate terms,
while the state SNR matrix stays clean.

``EpisodeBatch`` is the one implementation of reset, step, preview, scoring
and observation.  It holds B episodes of one config and steps them in
lockstep: positions and waypoints are (B, n_ues, 2) arrays, thresholds
(B, n_bs) and the SNR matrix (B, n_bs, n_ues), and each stage is one numpy
pass over the whole batch.  The horizon is fixed, so all B episodes end
together.  A policy acts on the batch itself: ``policy.act(batch)`` reads
``policy_rngs``, ``cfg.n_actions`` and ``preview_step_rewards()`` and
returns one action code per episode; it may keep actions drawn ahead in
``policy_plan``, which reset clears.  ``CellularNetworkEnv`` is the B=1
view, and ``policy(env)`` is ``act`` on the batch behind it.

The batch keeps one row per state of the episode, time-major: row 0 is the
reset state and row t + 1 the state after step t.  A row holds every
episode's thresholds, SNR matrix and, when faded, faded SNR matrix, and
once scored its rewards and per-user utilities.  ``score`` is the only code
that scores rows, faded or not: it scores every row reached since its last
call, in step order, in one ``mac.reward`` call per 16 rows.  ``rollout``
scores once per block, after the last step; the B=1 view scores its row at
reset and after each step, so its observation can carry the utilities.

Random streams stay per episode.  Reset checks that every seed is
non-negative, then derives three independent streams from each episode's
seed: mobility (one child stream per user), fading, and policy noise.
They are numpy's ``SeedSequence(seed).spawn(3)`` children, mobility's own
``spawn(n_ues)`` children, and ``default_rng`` of each, state for state;
``_streams.stream_words`` hashes every seed of a block in one array pass,
and only the generators are built one by one.  Motion and fading do not depend on
the actions, so reset draws the whole exogenous episode: each user draws
its start and ``horizon + 1`` waypoints from its own stream in one chunk,
one ``mobility.step_motion`` call walks every user of the block
``horizon`` steps along its route into one array of positions, and one
``radio.snr_matrix`` call turns those into the SNR matrices of every
step.  Reset keeps the matrices and drops the route after the walk and
the positions after the SNR pass.  A faded episode also draws all its
(n_bs, n_ues) |H|^2 blocks from its own fading stream, one for the
reset's reward and one per step, step-major, in the order
per-step draws would take them, into the block's one array, which reset
then multiplies by the SNR rows once, in place, so the block keeps faded
SNRs and no |H|^2.  Step and preview only index these rows, and the
preview draws nothing.  So an episode is a pure function of (config, seed,
actions), whatever batch it runs in, which is what makes collected
trajectories reproducible byte for byte.  ``preview_step_rewards`` keeps
every action's fading-free reward only until the next ``step``; it serves
the policy's choice and scores no row.
"""

from __future__ import annotations

import operator

import numpy as np

from . import mac, mobility, radio
from .config import NetworkConfig, _integer

__all__ = ["CellularNetworkEnv", "decode_action"]


def _action_code(action, n_actions: int) -> int:
    """``action`` as an int in [0, n_actions).  A bool or any other
    non-integer raises ``TypeError`` (``operator.index`` alone takes
    ``True`` for 1), a code out of range ``ValueError``."""
    if isinstance(action, bool):
        raise TypeError(f"action must be an integer, got {action!r}")
    a = operator.index(action)
    if not 0 <= a < n_actions:
        raise ValueError(f"action {action} outside [0, {n_actions})")
    return a


def decode_action(action: int, n_bs: int) -> tuple:
    """Map an action code to one threshold delta in {-1, 0, +1} per station.

    Codes are base-3 with the most significant digit on station 0:
    0 decodes to all -1, the middle code to all 0, the top code to all +1.
    """
    a = _action_code(action, 3 ** n_bs)
    return tuple((a // 3 ** (n_bs - 1 - i)) % 3 - 1 for i in range(n_bs))


# Rows scored per ``mac.reward`` call: a row's reward depends only on that
# row, so the chunk size moves no bits, and the call's temporaries stay the
# size of 16 rows instead of growing with the horizon.
_SCORE_CHUNK = 16


def _unit(x):
    """Clip onto [0, 1]; the same values as ``np.clip(x, 0.0, 1.0)`` at a
    third of its call cost on small arrays."""
    return np.minimum(np.maximum(x, 0.0), 1.0)


class EpisodeBatch:
    """B episodes of one config, stepped in lockstep.

    Each state is a time-major row, 0 for reset and t + 1 after step t, of
    thresholds ``_taus`` (B, n_bs), SNRs ``_snrs``, faded SNRs ``_faded``
    (the rate-term SNRs) when faded, and, in the rows below ``_n_scored``,
    rewards ``_rewards`` (B,) and utilities ``_utils`` (B, n_ues).  Only
    ``score`` fills those, in step order; ``observations`` reads scored
    rows.
    """

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._bs = np.asarray(cfg.bs_positions, dtype=float)
        self._moves = cfg.threshold_step * np.array(
            [decode_action(a, cfg.n_bs) for a in range(cfg.n_actions)])  # (n_actions, n_bs)
        # Each station's threshold move under the deltas -1, 0 and +1.
        self._shifts = np.array([[-1.0], [0.0], [1.0]]) * cfg.threshold_step
        self._done = True

    def reset(self, seeds) -> None:
        """Start one fresh episode per non-negative seed; row 0 is left for
        ``score``."""
        cfg = self.cfg
        low = min(seeds)
        if low < 0:
            raise ValueError(f"seed must be at least 0, got {low}")
        # Imported here: loading numpy.random costs ~2 MB of RSS, which a
        # process that never resets an episode need not pay
        # (``data._block_results`` loads it just before it forks the workers
        # that run the shares the calling process does not run itself).
        from ._streams import generator, stream_words
        words = stream_words(seeds, cfg.n_ues)
        rows = cfg.horizon + 1
        self.policy_rngs = [generator(w) for w in words[:, 1]]
        # A policy's actions drawn ahead for the rest of the episode.
        self.policy_plan = None
        start, route = mobility.init_positions(
            cfg.mobility, [[generator(w) for w in user] for user in words[:, 2:]], cfg.horizon)
        # (horizon + 1, B, n_ues, 2) positions and (horizon + 1, B, n_bs,
        # n_ues) SNR matrices: row 0 for reset, t + 1 for step t.
        positions = mobility.step_motion(start, route, cfg.mobility)
        # The route, and for ``full`` mobility the uniform pairs its views
        # keep alive, are not needed past the walk.
        del start, route
        self._snrs = radio.snr_matrix(self._bs, positions, cfg.radio)
        # Nor are the positions past the SNR pass: no later stage reads them.
        del positions
        # (horizon + 1, B, n_bs, n_ues) faded SNRs, rows as above: each
        # episode's |H|^2 rows, then multiplied by the SNR rows in place.
        # Drawn last, so these rows do not add to the peak of the route draw.
        self._faded = None
        if cfg.fading.kind != "none":
            self._faded = np.empty((rows, len(words), cfg.n_bs, cfg.n_ues))
            for b, w in enumerate(words[:, 0]):
                self._faded[:, b] = radio.episode_fading_power(
                    cfg.fading, generator(w), rows, (cfg.n_bs, cfg.n_ues))
            np.multiply(self._faded, self._snrs, out=self._faded)
        self._preview = None
        # Thresholds, rewards and per-user utilities of every row; the rows
        # below ``_n_scored`` hold their rewards and utilities.
        self._taus = np.full((rows, len(words), cfg.n_bs), 0.5)
        self._rewards = np.empty((rows, len(words)))
        self._utils = np.empty((rows, len(words), cfg.n_ues))
        self._n_scored = 0
        self._t = 0
        self._done = False

    def step(self, actions) -> None:
        """Apply one action code per episode: move the thresholds into the
        next row, which ``score`` scores, and drop the preview.  A code
        below 0 or above the last moves as the nearest end code (it never
        wraps); the callers refuse such codes."""
        if self._done:
            raise RuntimeError("episode is done; call reset() first")
        t = self._t + 1
        self._taus[t] = _unit(self._taus[t - 1] + self._moves.take(actions, axis=0, mode="clip"))
        self._preview = None
        self._t = t
        self._done = t >= self.cfg.horizon

    def score(self) -> None:
        """Score the rows from the first unscored one up to the current
        one, in step order, in one ``mac.reward`` call per ``_SCORE_CHUNK``
        of them."""
        stop = self._t + 1
        for start in range(self._n_scored, stop, _SCORE_CHUNK):
            rows = slice(start, min(start + _SCORE_CHUNK, stop))
            faded = None if self._faded is None else self._faded[rows]
            self._rewards[rows], self._utils[rows] = mac.reward(
                self._snrs[rows], self._taus[rows], self.cfg.utility, faded)
        self._n_scored = stop

    def preview_step_rewards(self) -> np.ndarray:
        """Fading-free one-step reward of every action in every episode,
        (B, n_actions), without advancing.

        Every action sees the same upcoming positions.  The result is kept
        until the next ``step`` drops it, so a policy may ask again within a
        step; it scores no row, which is ``score``'s work.
        """
        if self._done:
            raise RuntimeError("environment must be mid-episode to preview")
        if self._preview is None:
            taus = _unit(self._taus[self._t][:, None, :] + self._shifts)  # (B, 3, n_bs)
            self._preview = mac.action_rewards(self._snrs[self._t + 1], taus, self.cfg.utility)
        return self._preview[0]

    def observations(self, start: int, stop: int) -> np.ndarray:
        """Observations of scored rows start..stop-1, episode-major:
        (B, stop - start, obs_dim)."""
        rows = slice(start, stop)
        snrs = self._snrs[rows].reshape(stop - start, self._taus.shape[1], -1)
        return np.concatenate([self._taus[rows].transpose(1, 0, 2), snrs.transpose(1, 0, 2),
                               self._utils[rows].transpose(1, 0, 2)], axis=-1)


class CellularNetworkEnv:
    """Multi-cell network with threshold-based user association: one
    episode, the B=1 view of ``EpisodeBatch``."""

    def __init__(self, cfg: NetworkConfig):
        self.cfg = cfg
        self._batch = EpisodeBatch(cfg)

    # -- lifecycle -----------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Start a fresh episode from the non-negative integer ``seed``;
        returns the initial observation."""
        self._batch.reset((_integer("seed", seed, low=0),))
        self._batch.score()
        return self._batch.observations(0, 1)[0, 0]

    def step(self, action: int):
        """Apply one action; returns (obs, reward, done, info)."""
        batch = self._batch
        batch.step(np.array([_action_code(action, self.cfg.n_actions)]))
        batch.score()
        t = batch._t
        info = {"utilities": batch._utils[t, 0].copy(), "thresholds": batch._taus[t, 0].copy()}
        return batch.observations(t, t + 1)[0, 0], float(batch._rewards[t, 0]), batch._done, info

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
