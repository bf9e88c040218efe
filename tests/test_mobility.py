"""Waypoint motion: placement laws, step kinematics, variant contrast,
and bit equality with the per-user reference loop."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import reference_impl as ref
from cellsim.config import MobilityConfig, NetworkConfig
from cellsim.env import EpisodeBatch
from cellsim import mobility


def make_rngs(n, seed=0):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


def drawn_anchors(cfg, seed, n):
    """The anchors ``init_positions`` draws for the streams ``make_rngs(n,
    seed)`` under ``limited`` without pinned anchors: each stream's first
    uniform pair scaled to the map."""
    return np.array([g.random(2) * (cfg.map_width, cfg.map_height)
                     for g in make_rngs(n, seed)])


def reference_route(cfg, seed, n, steps):
    """Every user's start and ``steps + 1`` waypoints from the per-user
    reference: its initial waypoint, then one draw per later arrival."""
    rngs = make_rngs(n, seed)
    states = ref.init_positions(cfg, n, rngs)
    route = [[s.waypoint] + [ref.sample_waypoint(cfg, s, g) for _ in range(steps)]
             for s, g in zip(states, rngs)]
    return states, np.array(route)


class TestInitPositions:
    def test_full_positions_inside_map(self):
        cfg = MobilityConfig(variant="full")
        start, route = mobility.init_positions(cfg, [make_rngs(5)], 10)
        assert start.shape == (1, 5, 2)
        assert route.shape == (1, 5, 11, 2)
        for x, y in np.concatenate([start[0], route[0].reshape(-1, 2)]):
            assert 0.0 <= x <= cfg.map_width
            assert 0.0 <= y <= cfg.map_height

    def test_full_positions_uniform(self):
        cfg = MobilityConfig(variant="full")
        rng = np.random.default_rng(1)
        pts = np.array([mobility.init_positions(cfg, [[rng]], 0)[0][0, 0]
                        for _ in range(10_000)])
        assert np.allclose(pts.mean(axis=0), [100.0, 100.0], atol=2.0)
        # Chi-square uniformity over a 10x10 occupancy grid.
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1],
                                      bins=10, range=[[0, 200], [0, 200]])
        stat = scipy.stats.chisquare(counts.ravel())
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_limited_positions_near_anchor(self):
        cfg = MobilityConfig(variant="limited")
        start, _ = mobility.init_positions(cfg, [make_rngs(10_000, seed=2)], 0)
        anchors = drawn_anchors(cfg, 2, 10_000)
        dist = np.linalg.norm(start[0] - anchors, axis=-1)
        assert (dist <= cfg.init_radius + 1e-9).all()

    def test_limited_sampled_anchors_cover_map(self):
        cfg = MobilityConfig(variant="limited")
        anchors = drawn_anchors(cfg, 3, 5_000)
        # The drawn anchors are the ones init_positions centres its discs on.
        start, _ = mobility.init_positions(cfg, [make_rngs(5_000, seed=3)], 0)
        dist = np.linalg.norm(start[0] - anchors, axis=-1)
        assert (dist <= cfg.init_radius + 1e-9).all()
        assert np.allclose(anchors.mean(axis=0), [100.0, 100.0], atol=4.0)
        assert anchors[:, 0].max() > 180.0 and anchors[:, 0].min() < 20.0

    def test_limited_pinned_anchors_used_verbatim(self):
        pinned = ((30.0, 40.0), (150.0, 160.0))
        cfg = MobilityConfig(variant="limited", init_radius=0.0, waypoint_radius=0.0,
                             anchors=pinned)
        start, route = mobility.init_positions(cfg, [make_rngs(2)], 3)
        assert np.array_equal(start, [pinned])
        assert np.array_equal(route, np.broadcast_to(np.array(pinned)[None, :, None],
                                                     (1, 2, 4, 2)))

    def test_single_user(self):
        cfg = MobilityConfig(variant="full")
        start, route = mobility.init_positions(cfg, [make_rngs(1)], 1)
        assert start.shape == (1, 1, 2)
        assert route.shape == (1, 1, 2, 2)


class TestSampleWaypoint:
    """The laws of the route rows ``init_positions`` draws."""

    def test_full_waypoints_uniform(self):
        cfg = MobilityConfig(variant="full")
        rng = np.random.default_rng(4)
        pts = mobility.init_positions(cfg, [[rng]], 9_999)[1][0, 0]
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1],
                                      bins=10, range=[[0, 200], [0, 200]])
        stat = scipy.stats.chisquare(counts.ravel())
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_limited_waypoints_near_anchor(self):
        cfg = MobilityConfig(variant="limited")
        route = mobility.init_positions(cfg, [make_rngs(1, seed=5)], 9_999)[1][0, 0]
        anchor = drawn_anchors(cfg, 5, 1)[0]
        assert (np.linalg.norm(route - anchor, axis=-1) <= cfg.waypoint_radius + 1e-9).all()

    def test_zero_radius_degenerates_to_anchor(self):
        cfg = MobilityConfig(variant="limited", waypoint_radius=0.0,
                             anchors=((70.0, 80.0),))
        rng = np.random.default_rng(6)
        route = mobility.init_positions(cfg, [[rng]], 5)[1][0, 0]
        assert np.allclose(route, [70.0, 80.0], atol=1e-12)


class TestStepMotion:
    def test_zero_speed_freezes_everything(self):
        cfg = MobilityConfig(variant="full", speed=0.0)
        rng = np.random.default_rng(7)
        start, route = mobility.init_positions(cfg, [[rng]], 3)
        before = rng.bit_generator.state
        walk = mobility.step_motion(start, route, cfg)
        assert walk.shape == (4, 1, 1, 2)
        assert np.array_equal(walk, np.broadcast_to(start, walk.shape))
        # No draws should be consumed while frozen.
        assert rng.bit_generator.state == before

    def test_exact_arrival_lands_on_waypoint(self):
        cfg = MobilityConfig(variant="full", speed=5.0)
        rng = np.random.default_rng(8)
        _, route = mobility.init_positions(cfg, [[rng]], 2)
        start = route[:, :, 0] - np.array([5.0, 0.0])
        inputs = start.copy(), route.copy()
        walk = mobility.step_motion(start, route, cfg)
        assert np.allclose(walk[1], route[:, :, 0], atol=1e-12)
        # Then it heads for the next waypoint of its route.
        ahead = np.linalg.norm(route[0, 0, 1] - walk[1:, 0, 0], axis=-1)
        assert ahead[1] == pytest.approx(max(ahead[0] - cfg.speed, 0.0), abs=1e-9)
        assert np.array_equal(start, inputs[0]), "start unchanged"
        assert np.array_equal(route, inputs[1]), "route unchanged"

    def test_standing_on_waypoint_draws_a_new_one(self):
        # A user on its waypoint arrives at once and heads for the next one.
        cfg = MobilityConfig(variant="full", speed=2.5)
        rng = np.random.default_rng(12)
        _, route = mobility.init_positions(cfg, [[rng]], 2)
        walk = mobility.step_motion(route[:, :, 0].copy(), route, cfg)
        assert np.array_equal(walk[1], route[:, :, 0])
        ahead = np.linalg.norm(route[0, 0, 1] - walk[1:, 0, 0], axis=-1)
        assert ahead[1] == pytest.approx(max(ahead[0] - cfg.speed, 0.0), abs=1e-9)

    def test_partial_step_moves_toward_waypoint(self):
        cfg = MobilityConfig(variant="full", speed=2.5)
        route = np.array([[[[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]]]])
        walk = mobility.step_motion(np.array([[[0.0, 0.0]]]), route, cfg)
        assert np.allclose(walk[:, 0, 0], [[0.0, 0.0], [2.5, 0.0], [5.0, 0.0]], atol=1e-12)

    def test_displacement_never_exceeds_speed(self):
        cfg = MobilityConfig(variant="full", speed=2.5)
        rng = np.random.default_rng(10)
        walk = mobility.step_motion(*mobility.init_positions(cfg, [[rng]], 100_000),
                                    cfg)[:, 0, 0]
        assert (np.linalg.norm(np.diff(walk, axis=0), axis=-1) <= cfg.speed + 1e-9).all()
        assert ((0.0 <= walk[:, 0]) & (walk[:, 0] <= cfg.map_width)).all()
        assert ((0.0 <= walk[:, 1]) & (walk[:, 1] <= cfg.map_height)).all()

    def test_limited_trajectory_stays_in_disc(self):
        cfg = MobilityConfig(variant="limited", anchors=((100.0, 60.0),))
        rng = np.random.default_rng(11)
        bound = max(cfg.init_radius, cfg.waypoint_radius)
        walk = mobility.step_motion(*mobility.init_positions(cfg, [[rng]], 5_000),
                                    cfg)[:, 0, 0]
        assert (np.linalg.norm(walk - cfg.anchors[0], axis=-1) <= bound + 1e-9).all()


class TestVariantContrast:
    def _position_variance(self, variant, seed, n_steps=10_000):
        cfg = MobilityConfig(variant=variant)
        rng = np.random.default_rng(seed)
        pts = mobility.step_motion(*mobility.init_positions(cfg, [[rng]], n_steps),
                                   cfg)[1:, 0, 0]
        return pts.var(axis=0).sum()

    def test_limited_variance_below_full(self):
        for seed in (0, 1, 2):
            lim = self._position_variance("limited", seed)
            full = self._position_variance("full", seed)
            assert lim < full, f"seed {seed}: limited {lim} vs full {full}"


class TestDeterminism:
    @pytest.mark.parametrize("variant", ["full", "limited"])
    def test_same_seed_same_trajectory(self, variant):
        cfg = MobilityConfig(variant=variant)

        def run(seed):
            return mobility.step_motion(
                *mobility.init_positions(cfg, [make_rngs(3, seed)], 200), cfg)

        a, b = run(42), run(42)
        assert np.array_equal(a, b)
        c = run(43)
        assert not np.array_equal(a, c)


# Map sides, and coordinates that put pinned anchors on edges and corners.
_SIDES = st.sampled_from([50.0, 137.5, 200.0, 300.0])
_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestMatchesReference:
    """The array kernel against the per-user loop in ``reference_impl``:
    bit-equal positions, waypoints and routes, the route being the
    waypoints the loop draws one arrival at a time."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3),
           n_ues=st.integers(1, 6),
           variant=st.sampled_from(["full", "limited"]),
           pinned=st.booleans(),
           # Dyadic speeds keep "exact" users exactly one step from their
           # waypoint; the subtraction that places them is then exact.
           speed=st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5, 8.0]),
                           st.floats(0.5, 60.0)),
           on_waypoint=st.lists(st.sampled_from(["free", "exact", "zero"]),
                                min_size=18, max_size=18),
           n_steps=st.integers(1, 40))
    def test_array_step_matches_per_user_loop(self, seeds, n_ues, variant, pinned,
                                              speed, on_waypoint, n_steps):
        """One ``step_motion`` walk of B episodes equals the reference's
        per-step chain at every step, and leaves its inputs unchanged."""
        anchors = None
        if variant == "limited" and pinned:
            anchors = tuple((20.0 + 30.0 * j, 180.0 - 25.0 * j) for j in range(n_ues))
        cfg = MobilityConfig(variant=variant, speed=speed, anchors=anchors)
        rngs = [make_rngs(n_ues, seed) for seed in seeds]
        ref_rngs = [make_rngs(n_ues, seed) for seed in seeds]

        _, route = mobility.init_positions(cfg, rngs, n_steps)
        ref_states = [ref.init_positions(cfg, n_ues, row) for row in ref_rngs]
        # Put some users exactly one step short of their waypoint, or on it.
        for s, where in zip((s for row in ref_states for s in row), on_waypoint):
            if where == "exact":
                s.position = s.waypoint - np.array([speed, 0.0])
            elif where == "zero":
                s.position = s.waypoint.copy()
        start = np.array([[s.position for s in row] for row in ref_states])
        before = start.copy(), route.copy()
        # Every waypoint each reference user has drawn so far, in order.
        visited = [[[s.waypoint] for s in row] for row in ref_states]
        expected = [[[s.position for s in row] for row in ref_states]]
        for _ in range(n_steps):
            ref_states = [[ref.step_motion(s, cfg, g) for s, g in zip(row, streams)]
                          for row, streams in zip(ref_states, ref_rngs)]
            for drawn_row, row in zip(visited, ref_states):
                for drawn, s in zip(drawn_row, row):
                    if not np.array_equal(drawn[-1], s.waypoint):
                        drawn.append(s.waypoint)
            expected.append([[s.position for s in row] for row in ref_states])

        walk = mobility.step_motion(start, route, cfg)
        assert walk.shape == (n_steps + 1, len(seeds), n_ues, 2)
        assert np.array_equal(walk, expected)
        assert all(np.array_equal(a, b) for a, b in zip((start, route), before))
        for b, drawn_row in enumerate(visited):
            for j, drawn in enumerate(drawn_row):
                assert np.array_equal(route[b, j, :len(drawn)], drawn)
        if variant == "limited":
            for b, row in enumerate(ref_states):
                for j, s in enumerate(row):
                    reach = np.linalg.norm(route[b, j] - s.anchor, axis=-1)
                    assert (reach <= cfg.waypoint_radius + 1e-9).all()

    @pytest.mark.parametrize("variant, anchors", [
        ("full", None),
        ("limited", ((30.0, 40.0), (150.0, 160.0), (100.0, 60.0))),
        ("limited", None),
    ], ids=["full", "limited-pinned", "limited-drawn"])
    def test_batched_init_matches_per_episode_reference(self, variant, anchors):
        cfg = MobilityConfig(variant=variant, anchors=anchors)
        rngs = [make_rngs(3, seed) for seed in (0, 1, 2)]
        start, route = mobility.init_positions(cfg, rngs, 30)
        refs = [reference_route(cfg, seed, 3, 30) for seed in (0, 1, 2)]
        assert np.array_equal(start, [[s.position for s in row] for row, _ in refs])
        assert np.array_equal(route[:, :, 0],
                              [[s.waypoint for s in row] for row, _ in refs])
        assert np.array_equal(route, [r for _, r in refs])
        if variant == "limited":
            for b, (row, _) in enumerate(refs):
                for j, s in enumerate(row):
                    reach = np.linalg.norm(route[b, j] - s.anchor, axis=-1)
                    assert (reach <= cfg.waypoint_radius + 1e-9).all()
        if anchors is not None or variant == "full":
            # No draw can be rejected here, so one chunk per user is exactly
            # what the reference reads: the streams end in the same state.
            ref_rngs = [make_rngs(3, seed) for seed in (0, 1, 2)]
            for row, ref_row in zip(rngs, ref_rngs):
                states = ref.init_positions(cfg, 3, ref_row)
                for g, h, s in zip(row, ref_row, states):
                    for _ in range(30):
                        ref.sample_waypoint(cfg, s, h)
                    assert g.bit_generator.state == h.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           width=_SIDES, height=_SIDES,
           variant=st.sampled_from(["full", "limited"]),
           pinned=st.booleans(),
           radius_scale=st.tuples(*[st.one_of(st.just(0.0), st.floats(0.0, 1.5))] * 2),
           speed_kind=st.sampled_from(["zero", "slow", "past-diagonal"]),
           n_ues=st.integers(1, 4),
           horizon=st.integers(1, 25),
           seeds=st.sampled_from([1, 3]).flatmap(
               lambda b: st.lists(st.integers(0, 2 ** 32 - 1), min_size=b, max_size=b)))
    def test_reset_positions_match_per_user_loop(self, data, width, height, variant,
                                                 pinned, radius_scale, speed_kind,
                                                 n_ues, horizon, seeds):
        """Reset's whole-episode positions equal the reference's per-step
        chain bit for bit: radii from 0 to beyond the map size, anchors on
        edges and corners, and speeds at least the map diagonal, where every
        user arrives on every step and walks all ``horizon + 1`` legs."""
        side = max(width, height)
        diagonal = float(np.hypot(width, height))
        speed = {"zero": 0.0, "slow": data.draw(st.floats(0.5, 0.2 * side)),
                 "past-diagonal": data.draw(st.floats(diagonal, 2.0 * diagonal))}[speed_kind]
        anchors = None
        if variant == "limited" and pinned:
            anchors = tuple((data.draw(_UNIT) * width, data.draw(_UNIT) * height)
                            for _ in range(n_ues))
        motion = MobilityConfig(variant=variant, speed=speed, map_width=width,
                                map_height=height, init_radius=radius_scale[0] * side,
                                waypoint_radius=radius_scale[1] * side, anchors=anchors)
        cfg = NetworkConfig(n_bs=1, n_ues=n_ues, bs_positions=((0.0, 0.0),),
                            mobility=motion, horizon=horizon)
        batch = EpisodeBatch(cfg)
        batch.reset(seeds)

        expected = []
        for seed in seeds:
            # Fresh per-user streams, derived as reset derives them.
            rngs = [np.random.default_rng(ss) for ss in
                    np.random.SeedSequence(seed).spawn(3)[0].spawn(n_ues)]
            states = ref.init_positions(motion, n_ues, rngs)
            rows = [[s.position for s in states]]
            for _ in range(horizon):
                states = [ref.step_motion(s, motion, g) for s, g in zip(states, rngs)]
                rows.append([s.position for s in states])
            expected.append(rows)
        assert np.array_equal(batch._positions, np.swapaxes(expected, 0, 1))
