"""Random-waypoint user motion.

Each user moves in a straight line toward its current waypoint at constant
speed.  On arrival the residual step distance is discarded and the user
heads for its next waypoint.  The ``full`` variant draws waypoints
uniformly over the whole map; the ``limited`` variant confines each user to
a disc around a per-user anchor, which yields the low-mobility regime.

All users' state is held in (B episodes, n_ues, ...) arrays
(``MotionState``) and ``step_motion`` advances every user of every episode
in one call.  Each user owns its own RNG stream, and ``init_positions``
draws from it everything the user will need for ``steps`` steps: a user
arrives at most once per step, so its route holds ``steps + 1`` waypoints,
and ``step_motion`` draws nothing.  The values are those a user drawing
one waypoint on each arrival would get, since it would read the same
stream in the same order; only the unread tail of the stream differs.
States are never modified in place; a stepped state may share unchanged
arrays with the old one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import MobilityConfig

__all__ = ["MotionState", "init_positions", "step_motion"]


class MotionState(NamedTuple):
    """Motion bookkeeping for B episodes, one row per user."""

    position: np.ndarray  # (B, n_ues, 2)
    waypoint: np.ndarray  # (B, n_ues, 2), always route[..., leg, :]
    route: np.ndarray     # (B, n_ues, steps + 1, 2) waypoints in visiting order
    leg: np.ndarray       # (B, n_ues) index of the current waypoint in route


def _disc_routes(cfg: MobilityConfig, anchors, pairs, users, n):
    """(start (U, 2), route (U, n, 2)) of U users from their (U, k, 2)
    uniform pairs, each pair a draw from disc(anchor, radius) intersected
    with the map by rejection: the start is the first pair accepted in the
    ``init_radius`` disc, the route the next n pairs accepted in the
    ``waypoint_radius`` disc.  A user whose pairs fall short draws k more
    from its stream in ``users`` and is worked out again.
    """
    root = np.sqrt(pairs[..., 0])
    theta = 2.0 * np.pi * pairs[..., 1]
    cos, sin = np.cos(theta), np.sin(theta)

    def disc(radius):
        # The same float operations, in the same order, as a scalar draw
        # of r = radius * sqrt(u) and x = cx + r * cos(2 pi v).
        r = radius * root
        x, y = anchors[:, None, 0] + r * cos, anchors[:, None, 1] + r * sin
        inside = (0.0 <= x) & (x <= cfg.map_width) & (0.0 <= y) & (y <= cfg.map_height)
        return np.stack([x, y], axis=-1), inside

    starts, start_ok = disc(cfg.init_radius)
    points, point_ok = disc(cfg.waypoint_radius)
    first = start_ok.argmax(axis=1)
    point_ok &= np.arange(pairs.shape[1]) > first[:, None]
    point_ok &= point_ok.cumsum(axis=1) <= n
    short = ~start_ok.any(axis=1) | (point_ok.sum(axis=1) < n)
    start = starts[np.arange(len(pairs)), first]
    route = np.empty((len(pairs), n, 2))
    route[~short] = points[~short][point_ok[~short]].reshape(-1, n, 2)
    if short.any():
        idx = np.flatnonzero(short)
        more = np.array([users[i].random(pairs.shape[1:]) for i in idx])
        start[idx], route[idx] = _disc_routes(
            cfg, anchors[idx], np.concatenate([pairs[idx], more], axis=1),
            [users[i] for i in idx], n)
    return start, route


def init_positions(cfg: MobilityConfig, rngs, steps: int) -> MotionState:
    """Draw the motion of B episodes for ``steps`` steps, ``rngs[b][j]``
    being user j's stream in episode b.

    Each user draws its anchor (``limited`` without pinned anchors), then
    its start position, then ``steps + 1`` waypoints, all in one chunk of
    uniform pairs; only a user whose chunk falls short of accepted disc
    draws (an anchor near an edge, a radius near the map size) draws more.
    """
    users = [g for row in rngs for g in row]
    size = np.array([cfg.map_width, cfg.map_height])
    drawn = int(cfg.variant == "limited" and cfg.anchors is None)
    # The anchor when drawn, the start, then steps + 1 waypoints.
    pairs = np.array([g.random((drawn + steps + 2, 2)) for g in users])
    if cfg.variant == "full":
        start, route = pairs[:, 0] * size, pairs[:, 1:] * size
    else:
        anchors = (pairs[:, 0] * size if drawn else
                   np.tile(np.array(cfg.anchors, dtype=float), (len(rngs), 1)))
        start, route = _disc_routes(cfg, anchors, pairs[:, drawn:], users, steps + 1)
    route = route.reshape(len(rngs), -1, steps + 1, 2)
    return MotionState(position=start.reshape(len(rngs), -1, 2), waypoint=route[:, :, 0],
                       route=route, leg=np.zeros(route.shape[:2], dtype=int))


def step_motion(state: MotionState, cfg: MobilityConfig) -> MotionState:
    """Advance every user of B episodes by one step.

    Zero speed freezes every user entirely (waypoints included).  A user
    whose waypoint is no farther than one step lands on it exactly, the
    leftover distance is discarded, and it heads for the next waypoint of
    its route.
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
    leg = state.leg + arrived
    b, j = np.nonzero(arrived)
    waypoint = state.waypoint.copy()
    waypoint[b, j] = state.route[b, j, leg[b, j]]
    return state._replace(position=position, waypoint=waypoint, leg=leg)
