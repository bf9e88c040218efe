"""Waypoint motion: placement laws, step kinematics, variant contrast,
and bit equality with the per-user reference loop."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import reference_impl as ref
from cellsim.config import MobilityConfig
from cellsim import mobility


def make_rngs(n, seed=0):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n)]


class TestInitPositions:
    def test_full_positions_inside_map(self):
        cfg = MobilityConfig(variant="full")
        state = mobility.init_positions(cfg, [make_rngs(5)])
        assert state.position.shape == state.waypoint.shape == (1, 5, 2)
        assert state.anchor is None
        for x, y in state.position[0]:
            assert 0.0 <= x <= cfg.map_width
            assert 0.0 <= y <= cfg.map_height

    def test_full_positions_uniform(self):
        cfg = MobilityConfig(variant="full")
        rng = np.random.default_rng(1)
        pts = np.array([mobility.init_positions(cfg, [[rng]]).position[0, 0]
                        for _ in range(10_000)])
        assert np.allclose(pts.mean(axis=0), [100.0, 100.0], atol=2.0)
        # Chi-square uniformity over a 10x10 occupancy grid.
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1],
                                      bins=10, range=[[0, 200], [0, 200]])
        stat = scipy.stats.chisquare(counts.ravel())
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_limited_positions_near_anchor(self):
        cfg = MobilityConfig(variant="limited")
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            s = mobility.init_positions(cfg, [[rng]])
            assert np.linalg.norm(s.position[0, 0] - s.anchor[0, 0]) <= cfg.init_radius + 1e-9

    def test_limited_sampled_anchors_cover_map(self):
        cfg = MobilityConfig(variant="limited")
        rng = np.random.default_rng(3)
        anchors = np.array([mobility.init_positions(cfg, [[rng]]).anchor[0, 0]
                            for _ in range(5_000)])
        assert np.allclose(anchors.mean(axis=0), [100.0, 100.0], atol=4.0)
        assert anchors[:, 0].max() > 180.0 and anchors[:, 0].min() < 20.0

    def test_limited_pinned_anchors_used_verbatim(self):
        cfg = MobilityConfig(variant="limited",
                             anchors=((30.0, 40.0), (150.0, 160.0)))
        state = mobility.init_positions(cfg, [make_rngs(2)])
        assert np.array_equal(state.anchor, [[[30.0, 40.0], [150.0, 160.0]]])

    def test_single_user(self):
        cfg = MobilityConfig(variant="full")
        state = mobility.init_positions(cfg, [make_rngs(1)])
        assert state.position.shape == (1, 1, 2)


class TestSampleWaypoint:
    def test_full_waypoints_uniform(self):
        cfg = MobilityConfig(variant="full")
        rng = np.random.default_rng(4)
        mobility.init_positions(cfg, [[rng]])
        pts = np.array([mobility.sample_waypoint(cfg, None, rng)
                        for _ in range(10_000)])
        counts, _, _ = np.histogram2d(pts[:, 0], pts[:, 1],
                                      bins=10, range=[[0, 200], [0, 200]])
        stat = scipy.stats.chisquare(counts.ravel())
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_limited_waypoints_near_anchor(self):
        cfg = MobilityConfig(variant="limited")
        rng = np.random.default_rng(5)
        anchor = mobility.init_positions(cfg, [[rng]]).anchor[0, 0]
        for _ in range(10_000):
            w = mobility.sample_waypoint(cfg, anchor, rng)
            assert np.linalg.norm(w - anchor) <= cfg.waypoint_radius + 1e-9

    def test_zero_radius_degenerates_to_anchor(self):
        cfg = MobilityConfig(variant="limited", waypoint_radius=0.0,
                             anchors=((70.0, 80.0),))
        rng = np.random.default_rng(6)
        anchor = mobility.init_positions(cfg, [[rng]]).anchor[0, 0]
        w = mobility.sample_waypoint(cfg, anchor, rng)
        assert np.allclose(w, [70.0, 80.0], atol=1e-12)


class TestStepMotion:
    def test_zero_speed_freezes_everything(self):
        cfg = MobilityConfig(variant="full", speed=0.0)
        rng = np.random.default_rng(7)
        state = mobility.init_positions(cfg, [[rng]])
        before = rng.bit_generator.state
        nxt = mobility.step_motion(state, cfg, [[rng]])
        assert np.array_equal(nxt.position, state.position)
        assert np.array_equal(nxt.waypoint, state.waypoint)
        # No draws should be consumed while frozen.
        assert rng.bit_generator.state == before

    def test_exact_arrival_lands_on_waypoint(self):
        cfg = MobilityConfig(variant="full", speed=5.0)
        rng = np.random.default_rng(8)
        state = mobility.init_positions(cfg, [[rng]])
        state = state._replace(position=state.waypoint - np.array([5.0, 0.0]))
        old_waypoint = state.waypoint.copy()
        nxt = mobility.step_motion(state, cfg, [[rng]])
        assert np.allclose(nxt.position, old_waypoint, atol=1e-12)
        assert not np.array_equal(nxt.waypoint, old_waypoint)
        assert np.array_equal(state.waypoint, old_waypoint), "input state unchanged"

    def test_standing_on_waypoint_draws_a_new_one(self):
        cfg = MobilityConfig(variant="full", speed=2.5)
        rng = np.random.default_rng(12)
        state = mobility.init_positions(cfg, [[rng]])
        state = state._replace(position=state.waypoint.copy())
        nxt = mobility.step_motion(state, cfg, [[rng]])
        assert np.array_equal(nxt.position, state.waypoint)
        assert not np.array_equal(nxt.waypoint, state.waypoint)

    def test_partial_step_moves_toward_waypoint(self):
        cfg = MobilityConfig(variant="full", speed=2.5)
        state = mobility.MotionState(position=np.array([[0.0, 0.0]])[None],
                                     waypoint=np.array([[10.0, 0.0]])[None],
                                     anchor=None)
        nxt = mobility.step_motion(state, cfg, [[np.random.default_rng(9)]])
        assert np.allclose(nxt.position, [[[2.5, 0.0]]], atol=1e-12)
        assert np.array_equal(nxt.waypoint, [[[10.0, 0.0]]])

    def test_displacement_never_exceeds_speed(self):
        cfg = MobilityConfig(variant="full", speed=2.5)
        rng = np.random.default_rng(10)
        state = mobility.init_positions(cfg, [[rng]])
        for _ in range(100_000):
            nxt = mobility.step_motion(state, cfg, [[rng]])
            step = np.linalg.norm(nxt.position[0, 0] - state.position[0, 0])
            assert step <= cfg.speed + 1e-9
            assert 0.0 <= nxt.position[0, 0, 0] <= cfg.map_width
            assert 0.0 <= nxt.position[0, 0, 1] <= cfg.map_height
            state = nxt

    def test_limited_trajectory_stays_in_disc(self):
        cfg = MobilityConfig(variant="limited", anchors=((100.0, 60.0),))
        rng = np.random.default_rng(11)
        state = mobility.init_positions(cfg, [[rng]])
        bound = max(cfg.init_radius, cfg.waypoint_radius)
        for _ in range(5_000):
            state = mobility.step_motion(state, cfg, [[rng]])
            assert np.linalg.norm(state.position[0, 0] - state.anchor[0, 0]) <= bound + 1e-9


class TestVariantContrast:
    def _position_variance(self, variant, seed, n_steps=10_000):
        cfg = MobilityConfig(variant=variant)
        rng = np.random.default_rng(seed)
        state = mobility.init_positions(cfg, [[rng]])
        pts = np.empty((n_steps, 2))
        for t in range(n_steps):
            state = mobility.step_motion(state, cfg, [[rng]])
            pts[t] = state.position[0, 0]
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
            rngs = make_rngs(3, seed)
            state = mobility.init_positions(cfg, [rngs])
            out = []
            for _ in range(200):
                state = mobility.step_motion(state, cfg, [rngs])
                out.append(state.position)
            return np.stack(out)

        a, b = run(42), run(42)
        assert np.array_equal(a, b)
        c = run(43)
        assert not np.array_equal(a, c)


class TestMatchesReference:
    """The array kernel against the per-user loop in ``reference_impl``:
    bit-equal positions and waypoints, and every user's stream left in the
    same state after every step."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_ues=st.integers(1, 6),
           variant=st.sampled_from(["full", "limited"]),
           pinned=st.booleans(),
           speed=st.one_of(st.just(0.0), st.floats(0.5, 60.0)),
           on_waypoint=st.lists(st.sampled_from(["free", "exact", "zero"]),
                                min_size=6, max_size=6),
           n_steps=st.integers(1, 40))
    def test_array_step_matches_per_user_loop(self, seed, n_ues, variant, pinned,
                                              speed, on_waypoint, n_steps):
        anchors = None
        if variant == "limited" and pinned:
            anchors = tuple((20.0 + 30.0 * j, 180.0 - 25.0 * j) for j in range(n_ues))
        cfg = MobilityConfig(variant=variant, speed=speed, anchors=anchors)
        rngs, ref_rngs = make_rngs(n_ues, seed), make_rngs(n_ues, seed)

        state = mobility.init_positions(cfg, [rngs])
        ref_states = ref.init_positions(cfg, n_ues, ref_rngs)
        # Put some users exactly one step short of their waypoint, or on it.
        for j, s in enumerate(ref_states):
            if on_waypoint[j] == "exact":
                s.position = s.waypoint - np.array([speed, 0.0])
            elif on_waypoint[j] == "zero":
                s.position = s.waypoint.copy()
        state = state._replace(position=np.array([s.position for s in ref_states])[None])

        def assert_same(state, ref_states):
            assert np.array_equal(state.position, [[s.position for s in ref_states]])
            assert np.array_equal(state.waypoint, [[s.waypoint for s in ref_states]])
            if variant == "limited":
                assert np.array_equal(state.anchor, [[s.anchor for s in ref_states]])
            else:
                assert state.anchor is None
            for g, h in zip(rngs, ref_rngs):
                assert g.bit_generator.state == h.bit_generator.state

        assert_same(state, ref_states)
        for _ in range(n_steps):
            state = mobility.step_motion(state, cfg, [rngs])
            ref_states = [ref.step_motion(s, cfg, g) for s, g in zip(ref_states, ref_rngs)]
            assert_same(state, ref_states)

    @pytest.mark.parametrize("variant, anchors", [
        ("full", None),
        ("limited", ((30.0, 40.0), (150.0, 160.0), (100.0, 60.0))),
        ("limited", None),
    ], ids=["full", "limited-pinned", "limited-drawn"])
    def test_batched_init_matches_per_episode_reference(self, variant, anchors):
        cfg = MobilityConfig(variant=variant, anchors=anchors)
        rngs = [make_rngs(3, seed) for seed in (0, 1, 2)]
        ref_rngs = [make_rngs(3, seed) for seed in (0, 1, 2)]
        state = mobility.init_positions(cfg, rngs)
        ref_states = [ref.init_positions(cfg, 3, row) for row in ref_rngs]
        assert np.array_equal(state.position, [[s.position for s in row] for row in ref_states])
        assert np.array_equal(state.waypoint, [[s.waypoint for s in row] for row in ref_states])
        if variant == "limited":
            assert np.array_equal(state.anchor, [[s.anchor for s in row] for row in ref_states])
        else:
            assert state.anchor is None
        for row, ref_row in zip(rngs, ref_rngs):
            for g, h in zip(row, ref_row):
                assert g.bit_generator.state == h.bit_generator.state
