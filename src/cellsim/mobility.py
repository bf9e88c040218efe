"""Random-waypoint user motion.

Each user moves in a straight line toward its current waypoint at constant
speed.  On arrival the residual step distance is discarded and a fresh
waypoint is sampled.  The ``full`` variant draws waypoints uniformly over
the whole map; the ``limited`` variant confines each user to a disc around
a per-user anchor, which yields the low-mobility regime.

All users' state is held in arrays (``MotionState``) and ``step_motion``
advances every user in one call; arrays may carry leading episode axes, so
one call also steps a batch of episodes.  Each user owns its own RNG stream
and draws from it only on reaching its waypoint.  States are never
modified in place; a stepped state may share unchanged arrays with the old
one.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import getitem
from typing import NamedTuple

import numpy as np

from .config import MobilityConfig

__all__ = ["MotionState", "init_positions", "sample_waypoint", "step_motion"]


class MotionState(NamedTuple):
    """Motion bookkeeping for all users, one row per user, after any
    leading episode axes."""

    position: np.ndarray       # (..., n_ues, 2)
    waypoint: np.ndarray       # (..., n_ues, 2)
    anchor: np.ndarray | None  # (..., n_ues, 2) for ``limited``, else None


def _uniform_in_map(cfg: MobilityConfig, rng) -> np.ndarray:
    return np.array([rng.random() * cfg.map_width, rng.random() * cfg.map_height])


def _uniform_in_disc(center, radius, cfg: MobilityConfig, rng) -> np.ndarray:
    """Uniform draw from disc(center, radius) intersected with the map.

    Rejection against the map boundary; the center itself lies in the map,
    so the acceptance region is never empty.
    """
    cx, cy = float(center[0]), float(center[1])
    while True:
        r = radius * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        x, y = cx + r * math.cos(theta), cy + r * math.sin(theta)
        if 0.0 <= x <= cfg.map_width and 0.0 <= y <= cfg.map_height:
            return np.array([x, y])


def sample_waypoint(cfg: MobilityConfig, anchor, rng) -> np.ndarray:
    """Next waypoint for one user: map-wide, or near its anchor when limited."""
    if cfg.variant == "limited":
        return _uniform_in_disc(anchor, cfg.waypoint_radius, cfg, rng)
    return _uniform_in_map(cfg, rng)


def init_positions(cfg: MobilityConfig, n_ues: int, rngs) -> MotionState:
    """Draw initial motion state for every user, one RNG stream each."""
    if len(rngs) != n_ues:
        raise ValueError(f"expected {n_ues} rng streams, got {len(rngs)}")
    if cfg.variant == "full":
        position = np.array([_uniform_in_map(cfg, g) for g in rngs])
        waypoint = np.array([_uniform_in_map(cfg, g) for g in rngs])
        return MotionState(position=position, waypoint=waypoint, anchor=None)
    if cfg.anchors is None:
        anchor = np.array([_uniform_in_map(cfg, g) for g in rngs])
    else:
        anchor = np.array(cfg.anchors[:n_ues], dtype=float)
    position = np.array([_uniform_in_disc(a, cfg.init_radius, cfg, g)
                         for a, g in zip(anchor, rngs, strict=True)])
    waypoint = np.array([_uniform_in_disc(a, cfg.waypoint_radius, cfg, g)
                         for a, g in zip(anchor, rngs)])
    return MotionState(position=position, waypoint=waypoint, anchor=anchor)


def step_motion(state: MotionState, cfg: MobilityConfig, rngs) -> MotionState:
    """Advance every user by one step; ``rngs[j]`` is user j's stream, and
    with leading episode axes ``rngs[b][j]`` is user j's stream in episode b.

    Zero speed freezes every user entirely (waypoints included).  A user
    whose waypoint is no farther than one step lands on it exactly, the
    leftover distance is discarded, and it draws its next waypoint.
    """
    if cfg.speed <= 0.0:
        return state
    delta = state.waypoint - state.position
    dist = np.hypot(delta[..., 0], delta[..., 1])
    # The maximum keeps the factor finite for arriving users (dist <= speed,
    # possibly 0), whose rows are overwritten with their waypoint below.
    position = state.position + delta * (cfg.speed / np.maximum(dist, cfg.speed))[..., None]
    arrived = dist <= cfg.speed
    if not arrived.any():
        return state._replace(position=position)
    position[arrived] = state.waypoint[arrived]
    waypoint = state.waypoint.copy()
    for idx in map(tuple, np.argwhere(arrived).tolist()):
        waypoint[idx] = sample_waypoint(
            cfg, None if state.anchor is None else state.anchor[idx],
            reduce(getitem, idx, rngs))
    return MotionState(position=position, waypoint=waypoint, anchor=state.anchor)
