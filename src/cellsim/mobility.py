"""Random-waypoint user motion.

Each user moves in a straight line toward its current waypoint at constant
speed.  On arrival the residual step distance is discarded and the user
heads for its next waypoint.  The ``full`` variant draws waypoints
uniformly over the whole map; the ``limited`` variant confines each user to
a disc around a per-user anchor, which yields the low-mobility regime.

All users' state is held in (B episodes, n_ues, ...) arrays
(``MotionState``).  Each user owns its own RNG stream, and
``init_positions`` draws from it everything the user will need for
``steps`` steps: a user arrives at most once per step, so its route holds
``steps + 1`` waypoints.  The values are those a user drawing one waypoint
on each arrival would get, since it would read the same stream in the same
order; only the unread tail of the stream differs.  ``step_motion`` draws
nothing: one call walks every user of every episode all ``steps`` steps
along its route and writes each step's positions into one preallocated
array.  It leaves the state it walks from unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import MobilityConfig

__all__ = ["MotionState", "init_positions", "step_motion"]


class MotionState(NamedTuple):
    """Motion bookkeeping for B episodes, one row per user."""

    position: np.ndarray  # (B, n_ues, 2)
    route: np.ndarray     # (B, n_ues, n_waypoints, 2) waypoints in visiting order
    leg: np.ndarray       # (B, n_ues) index of the current waypoint in route


def _disc(cfg: MobilityConfig, anchors, pairs, radius):
    """(points, inside) of the (U, k, 2) uniform pairs each drawn in
    disc(anchor, radius): the points, and whether each lies on the map."""
    points = np.empty(pairs.shape)
    x, y = points[..., 0], points[..., 1]
    # The same float operations, in the same order, as a scalar draw of
    # r = radius * sqrt(u) and x = cx + r * cos(2 pi v), in place.
    np.multiply(pairs[..., 1], 2.0 * np.pi, out=x)
    np.sin(x, out=y)
    np.cos(x, out=x)
    r = np.sqrt(pairs[..., 0])
    r *= radius
    x *= r
    y *= r
    x += anchors[:, None, 0]
    y += anchors[:, None, 1]
    inside = x >= 0.0
    inside &= x <= cfg.map_width
    inside &= y >= 0.0
    inside &= y <= cfg.map_height
    return points, inside


def _disc_routes(cfg: MobilityConfig, anchors, pairs, users, n):
    """(start (U, 2), route (U, n, 2)) of U users from their (U, k, 2)
    uniform pairs, each pair a draw from disc(anchor, radius) intersected
    with the map by rejection: the start is the first pair accepted in the
    ``init_radius`` disc, the route the next n pairs accepted in the
    ``waypoint_radius`` disc.  A user whose pairs fall short draws k more
    from its stream in ``users`` and is worked out again.
    """
    # Most users keep their first pair as the start; only the others need
    # the init disc over their whole chunk.
    start, start_ok = _disc(cfg, anchors, pairs[:, :1], cfg.init_radius)
    start, first = start[:, 0], np.zeros(len(pairs), dtype=int)
    short = np.zeros(len(pairs), dtype=bool)
    redo = np.flatnonzero(~start_ok[:, 0])
    if redo.size:
        starts, start_ok = _disc(cfg, anchors[redo], pairs[redo], cfg.init_radius)
        first[redo] = start_ok.argmax(axis=1)
        start[redo] = starts[np.arange(len(redo)), first[redo]]
        short[redo] = ~start_ok.any(axis=1)
    points, point_ok = _disc(cfg, anchors, pairs, cfg.waypoint_radius)
    point_ok &= np.arange(pairs.shape[1]) > first[:, None]
    point_ok &= point_ok.cumsum(axis=1, dtype=np.int32) <= n
    short |= point_ok.sum(axis=1) < n
    if not short.any():
        return start, points[point_ok].reshape(-1, n, 2)
    point_ok[short] = False
    route = np.empty((len(pairs), n, 2))
    route[~short] = points[point_ok].reshape(-1, n, 2)
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
    pairs = np.empty((len(users), drawn + steps + 2, 2))
    for g, chunk in zip(users, pairs):
        g.random(out=chunk)
    if cfg.variant == "full":
        pairs *= size
        start, route = pairs[:, 0], pairs[:, 1:]
    else:
        anchors = (pairs[:, 0] * size if drawn else
                   np.tile(np.array(cfg.anchors, dtype=float), (len(rngs), 1)))
        start, route = _disc_routes(cfg, anchors, pairs[:, drawn:], users, steps + 1)
    route = route.reshape(len(rngs), -1, steps + 1, 2)
    return MotionState(position=start.reshape(len(rngs), -1, 2), route=route,
                       leg=np.zeros(route.shape[:2], dtype=int))


def step_motion(state: MotionState, cfg: MobilityConfig, steps: int) -> np.ndarray:
    """Walk every user of B episodes ``steps`` steps along its route; the
    (steps + 1, B, n_ues, 2) positions, row 0 the state's own and row t + 1
    those after step t.

    Zero speed freezes every user entirely.  A user whose waypoint is no
    farther than one step lands on it exactly, the leftover distance is
    discarded, and it heads for the next waypoint of its route.  The route
    must hold a waypoint for every arrival: ``leg + steps`` waypoints past
    the current one.
    """
    n_legs = state.route.shape[-2]
    if state.leg.size and state.leg.max() + steps >= n_legs:
        raise ValueError(f"a route of {n_legs} waypoints cannot be walked {steps} steps"
                         " from its current leg")
    walk = np.empty((steps + 1, *state.position.shape))
    walk[0] = state.position
    if cfg.speed <= 0.0:
        walk[1:] = state.position
        return walk
    # One row per user, every array preallocated: a step writes its
    # positions straight into the next row of the walk.  Per-user values
    # are kept twice, once per coordinate, so each pass is over a plain
    # (U, 2) array.
    path = walk.reshape(steps + 1, -1, 2)
    route = state.route.reshape(-1, 2)
    at = np.arange(len(path[0])) * n_legs + state.leg.ravel()  # current waypoint, in route
    waypoint = route[at]
    delta, dist = np.empty_like(waypoint), np.empty_like(waypoint)
    arrived = np.empty(waypoint.shape, dtype=bool)
    speed = cfg.speed
    for position, new in zip(path, path[1:]):
        np.subtract(waypoint, position, out=delta)
        np.hypot(delta[:, 0], delta[:, 1], out=dist[:, 0])
        dist[:, 1] = dist[:, 0]
        np.less_equal(dist, speed, out=arrived)
        # The maximum keeps the factor finite for arriving users (dist <=
        # speed, possibly 0), whose rows are overwritten with their waypoint.
        np.maximum(dist, speed, out=dist)
        np.divide(speed, dist, out=dist)
        delta *= dist
        np.add(position, delta, out=new)
        if arrived.any():
            np.copyto(new, waypoint, where=arrived)
            at += arrived[:, 0]
            np.take(route, at, axis=0, out=waypoint)
    return walk
