"""Random-waypoint user motion.

Each user moves in a straight line toward its current waypoint at constant
speed.  On arrival the residual step distance is discarded and a fresh
waypoint is sampled.  The ``full`` variant draws waypoints uniformly over
the whole map; the ``limited`` variant confines each user to a disc around
a per-user anchor, which yields the low-mobility regime.

All users' state is held in (B episodes, n_ues, 2) arrays (``MotionState``)
and ``step_motion`` advances every user of every episode in one call.  Each
user owns its own RNG stream and, once placed, draws from it only on
reaching its waypoint.  States are never modified in place; a stepped state
may share unchanged arrays with the old one.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import MobilityConfig

__all__ = ["MotionState", "init_positions", "sample_waypoint", "step_motion"]


class MotionState(NamedTuple):
    """Motion bookkeeping for B episodes, one row per user."""

    position: np.ndarray       # (B, n_ues, 2)
    waypoint: np.ndarray       # (B, n_ues, 2)
    anchor: np.ndarray | None  # (B, n_ues, 2) for ``limited``, else None


def _uniform_in_map(cfg: MobilityConfig, rng) -> np.ndarray:
    return rng.random(2) * (cfg.map_width, cfg.map_height)


def _uniform_in_disc(center, radius, cfg: MobilityConfig, rng) -> np.ndarray:
    """Uniform draw from disc(center, radius) intersected with the map.

    Rejection against the map boundary; the center itself lies in the map,
    so the acceptance region is never empty.
    """
    cx, cy = float(center[0]), float(center[1])
    while True:
        u, v = rng.random(2).tolist()
        r, theta = radius * math.sqrt(u), 2.0 * math.pi * v
        x, y = cx + r * math.cos(theta), cy + r * math.sin(theta)
        if 0.0 <= x <= cfg.map_width and 0.0 <= y <= cfg.map_height:
            return np.array([x, y])


def sample_waypoint(cfg: MobilityConfig, anchor, rng) -> np.ndarray:
    """Next waypoint for one user: map-wide, or near its anchor when limited."""
    if cfg.variant == "limited":
        return _uniform_in_disc(anchor, cfg.waypoint_radius, cfg, rng)
    return _uniform_in_map(cfg, rng)


def init_positions(cfg: MobilityConfig, rngs) -> MotionState:
    """Draw the initial motion state of B episodes, ``rngs[b][j]`` being user
    j's stream in episode b.  Each user draws its anchor (``limited`` without
    pinned anchors), then its position, then its first waypoint."""
    users = [g for row in rngs for g in row]
    anchors = [None] * len(users)
    if cfg.variant == "full":
        position = [_uniform_in_map(cfg, g) for g in users]
    else:
        anchors = (np.tile(np.array(cfg.anchors, dtype=float), (len(rngs), 1))
                   if cfg.anchors is not None else [_uniform_in_map(cfg, g) for g in users])
        position = [_uniform_in_disc(a, cfg.init_radius, cfg, g) for a, g in zip(anchors, users)]
    waypoint = [sample_waypoint(cfg, a, g) for a, g in zip(anchors, users)]
    shape = (len(rngs), -1, 2)
    return MotionState(np.reshape(position, shape), np.reshape(waypoint, shape),
                       None if cfg.variant == "full" else np.reshape(anchors, shape))


def step_motion(state: MotionState, cfg: MobilityConfig, rngs) -> MotionState:
    """Advance every user of B episodes by one step; ``rngs[b][j]`` is user
    j's stream in episode b.

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
    for b, j in zip(*np.nonzero(arrived)):
        waypoint[b, j] = sample_waypoint(
            cfg, None if state.anchor is None else state.anchor[b, j], rngs[b][j])
    return MotionState(position=position, waypoint=waypoint, anchor=state.anchor)
