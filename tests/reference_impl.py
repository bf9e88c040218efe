"""Scalar references for the reward pipeline and for user motion.

Everything here is plain Python loops over lists or one user at a time, so
the vectorized implementation has an independent comparison point.

Reward: a user j connects to station i when its state SNR meets the
station threshold and the link's rate is positive, each station splits its
bandwidth so every connected user gets the same delivered rate (the
harmonic share), a user's rate is aggregated over its serving stations,
squashed through the clipped log utility, and the reward is the mean
utility over users.

Motion: one ``UeMotionState`` per user, stepped by ``step_motion`` with
that user's own RNG stream.  This is the per-user loop the array kernel in
``cellsim.mobility`` replaced; it must stay bit-equal to it, draws included.

Monte Carlo: ``reference_verify_jensen`` scores every fading draw in one
``mac.reward_terms`` call over the whole (n_samples, n_bs, n_ues) array, so
the chunked loop of ``cellsim.mac.verify_jensen`` has a whole-array
comparison point; ``reference_reward`` is the check on the reward itself.

It also holds two helpers that only tests use: ``encode_action``, the
inverse of ``cellsim.env.decode_action``, and ``histogram_overlap`` of two
tiers' return histograms.
"""

import math
from dataclasses import dataclass

import numpy as np

from cellsim.mac import JensenReport, reward_terms
from cellsim.radio import sample_fading


def reference_reward(snr_state, tau, bandwidth, w1=10.0, w2=1.0, w3=10.0,
                     clip_low=-20.0, clip_high=20.0, aggregate="mean",
                     snr_reward=None):
    """Reward and per-user utilities from nested-list inputs.

    ``snr_state`` drives connections and allocation fractions; rates in the
    utility are computed from ``snr_reward`` when given (the faded matrix),
    scaled by the state-derived allocation fractions.
    """
    n_bs = len(snr_state)
    n_ue = len(snr_state[0])
    if snr_reward is None:
        snr_reward = snr_state

    rate_state = [[bandwidth * math.log2(1.0 + snr_state[i][j])
                   for j in range(n_ue)] for i in range(n_bs)]
    # A link with no rate (zero SNR, or 1 + SNR rounding to 1) never connects.
    conn = [[snr_state[i][j] >= tau[i] and rate_state[i][j] > 0.0
             for j in range(n_ue)] for i in range(n_bs)]
    rate_reward = [[bandwidth * math.log2(1.0 + snr_reward[i][j])
                    for j in range(n_ue)] for i in range(n_bs)]

    # Allocation fraction a_ij = share_i / rate_state_ij, share_i the
    # harmonic split over the station's connected users.
    alloc = [[0.0] * n_ue for _ in range(n_bs)]
    for i in range(n_bs):
        inv_sum = 0.0
        for j in range(n_ue):
            if conn[i][j]:
                inv_sum += 1.0 / rate_state[i][j]
        if inv_sum > 0.0:
            share = 1.0 / inv_sum
            for j in range(n_ue):
                if conn[i][j]:
                    alloc[i][j] = share / rate_state[i][j]

    utilities = []
    for j in range(n_ue):
        delivered = []
        for i in range(n_bs):
            if conn[i][j]:
                delivered.append(alloc[i][j] * rate_reward[i][j])
        if not delivered:
            f_j = 0.0
        elif aggregate == "mean":
            f_j = sum(delivered) / len(delivered)
        else:
            f_j = sum(delivered)
        g = w1 * math.log(w2 + f_j) / math.log(w3)
        g = min(max(g, clip_low), clip_high)
        utilities.append((g - clip_low) / (clip_high - clip_low))

    return sum(utilities) / n_ue, utilities


def reference_verify_jensen(snr, tau, fading, params, n_samples, fixed_allocation, rng):
    """``verify_jensen``'s report, every sample scored in one pass over the
    whole array; for a fading model other than ``none``, inputs unchecked."""
    snr = np.asarray(snr, dtype=float)
    tau = np.asarray(tau, dtype=float)
    r = float(reward_terms(snr, tau, params)[0])
    faded = snr * sample_fading(fading, np.random.default_rng(rng),
                                (n_samples,) + snr.shape) ** 2
    if fixed_allocation:
        samples, _ = reward_terms(snr, tau, params, reward_snr=faded)
    else:
        samples, _ = reward_terms(faded, tau, params)
    mean_r = float(samples.mean())
    std_r = float(samples.std())
    holds = mean_r <= r + 3.0 * std_r / math.sqrt(n_samples)
    return JensenReport(model=fading.label(), n_samples=n_samples,
                        fixed_allocation=fixed_allocation,
                        r=r, mean_R=mean_r, std_R=std_r, holds=bool(holds))


def encode_action(deltas, n_bs=None):
    """Inverse of ``cellsim.env.decode_action``: base-3 code of one delta in
    {-1, 0, +1} per station, station 0 most significant."""
    deltas = tuple(int(d) for d in deltas)
    if n_bs is not None and len(deltas) != n_bs:
        raise ValueError(f"expected {n_bs} deltas, got {len(deltas)}")
    if any(d not in (-1, 0, 1) for d in deltas):
        raise ValueError("deltas must lie in {-1, 0, +1}")
    n = len(deltas)
    return sum((d + 1) * 3 ** (n - 1 - i) for i, d in enumerate(deltas))


def histogram_overlap(stats, tier_a, tier_b):
    """Shared probability mass in [0, 1] of two tiers' return histograms in
    a ``cellsim.data.return_stats`` result."""
    tiers = stats["tiers"]
    ha = np.asarray(tiers[tier_a]["histogram"], dtype=float)
    hb = np.asarray(tiers[tier_b]["histogram"], dtype=float)
    return float(np.minimum(ha / ha.sum(), hb / hb.sum()).sum())


@dataclass
class UeMotionState:
    """Motion bookkeeping for one user."""

    position: np.ndarray
    waypoint: np.ndarray
    anchor: np.ndarray | None
    ue_index: int


def _uniform_in_map(cfg, rng):
    return np.array([rng.random() * cfg.map_width, rng.random() * cfg.map_height])


def _uniform_in_disc(center, radius, cfg, rng):
    cx, cy = float(center[0]), float(center[1])
    while True:
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        x, y = cx + r * math.cos(theta), cy + r * math.sin(theta)
        if 0.0 <= x <= cfg.map_width and 0.0 <= y <= cfg.map_height:
            return np.array([x, y])


def sample_waypoint(cfg, state, rng):
    """Next waypoint for a user: map-wide, or near the anchor when limited."""
    if cfg.variant == "limited":
        return _uniform_in_disc(state.anchor, cfg.waypoint_radius, cfg, rng)
    return _uniform_in_map(cfg, rng)


def init_positions(cfg, n_ues, rngs):
    """Initial motion state of every user, one RNG stream each."""
    states = []
    for idx in range(n_ues):
        rng = rngs[idx]
        if cfg.variant == "limited":
            if cfg.anchors is not None:
                anchor = np.array(cfg.anchors[idx], dtype=float)
            else:
                anchor = _uniform_in_map(cfg, rng)
            position = _uniform_in_disc(anchor, cfg.init_radius, cfg, rng)
        else:
            anchor = None
            position = _uniform_in_map(cfg, rng)
        state = UeMotionState(position=position, waypoint=position, anchor=anchor,
                              ue_index=idx)
        state.waypoint = sample_waypoint(cfg, state, rng)
        states.append(state)
    return states


def step_motion(state, cfg, rng):
    """Advance one user by one step; returns a new state."""
    if cfg.speed <= 0.0:
        return UeMotionState(position=state.position.copy(),
                             waypoint=state.waypoint.copy(),
                             anchor=state.anchor, ue_index=state.ue_index)
    delta = state.waypoint - state.position
    dist = float(np.hypot(delta[0], delta[1]))
    if dist <= cfg.speed:
        new = UeMotionState(position=state.waypoint.copy(),
                            waypoint=state.waypoint.copy(),
                            anchor=state.anchor, ue_index=state.ue_index)
        new.waypoint = sample_waypoint(cfg, new, rng)
        return new
    return UeMotionState(position=state.position + delta * (cfg.speed / dist),
                         waypoint=state.waypoint.copy(),
                         anchor=state.anchor, ue_index=state.ue_index)
