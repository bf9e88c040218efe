"""Episode mechanics: action codes, observation layout, determinism."""

import pickle
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cellsim as cs
from cellsim import mac, mobility, radio
from cellsim.config import MobilityConfig, NetworkConfig, UtilityParams
from cellsim._streams import generator, stream_words
from cellsim.env import CellularNetworkEnv, EpisodeBatch, _unit, decode_action
import reference_impl as ref
from conftest import peak_traced_bytes, positions_of
from reference_impl import encode_action


class TestActionCodes:
    def test_known_codes(self):
        assert decode_action(0, 3) == (-1, -1, -1)
        assert decode_action(13, 3) == (0, 0, 0)
        assert decode_action(26, 3) == (1, 1, 1)
        assert decode_action(1, 3) == (-1, -1, 0)
        assert decode_action(9, 3) == (0, -1, -1)
        assert decode_action(22, 3) == (1, 0, 0)

    def test_round_trip_bijection(self):
        seen = set()
        for code in range(27):
            deltas = decode_action(code, 3)
            assert all(d in (-1, 0, 1) for d in deltas)
            assert encode_action(deltas) == code
            seen.add(deltas)
        assert len(seen) == 27

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decode_action(-1, 3)
        with pytest.raises(ValueError):
            decode_action(27, 3)
        for code in (26.5, "5", np.float64(2.0), True):
            with pytest.raises(TypeError):
                decode_action(code, 3)
        assert decode_action(np.int64(26), 3) == (1, 1, 1)

    def test_two_station_codes(self):
        assert decode_action(0, 2) == (-1, -1)
        assert decode_action(8, 2) == (1, 1)
        assert encode_action((0, 1)) == 5


class TestReset:
    def test_observation_layout(self, default_cfg):
        env = CellularNetworkEnv(default_cfg)
        obs, walk = positions_of(env.reset, 0)
        assert obs.shape == (23,)
        assert env.obs_dim == 23
        assert env.n_actions == 27
        assert np.all(obs[:3] == 0.5), "thresholds start at the midpoint"
        snr = radio.snr_matrix(np.array(default_cfg.bs_positions), walk[0, 0],
                               default_cfg.radio)
        assert np.array_equal(obs[3:18].reshape(3, 5), snr)
        assert np.all((obs >= 0.0) & (obs <= 1.0))

    def test_same_seed_same_observation(self, default_cfg):
        a = CellularNetworkEnv(default_cfg).reset(seed=7)
        b = CellularNetworkEnv(default_cfg).reset(seed=7)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self, default_cfg):
        a = CellularNetworkEnv(default_cfg).reset(seed=7)
        b = CellularNetworkEnv(default_cfg).reset(seed=8)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected_with_its_value(self, default_cfg):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            CellularNetworkEnv(default_cfg).reset(seed=-1)

    def test_faded_reset_holds_only_its_rows(self, monkeypatch):
        # Reset drops the route after the walk and the positions after the
        # SNR pass, so a reset block holds its rows and little else (39 KiB
        # more here, numpy 2.4, mostly the policy streams).  Keeping the
        # positions held 316 KiB more, and a check of the held bytes alone
        # misses a kept route, which the weak references below catch.
        cfg = cs.default_config(mobility_variant="limited", fading="rayleigh")
        EpisodeBatch(cfg).reset(range(40))  # imports done before tracing
        batch = EpisodeBatch(cfg)
        tracemalloc.start()
        try:
            batch.reset(range(40, 80))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows = sum(a.nbytes for a in (batch._snrs, batch._faded, batch._taus,
                                      batch._rewards, batch._utils))
        assert 0 <= held - rows <= 64 * 1024

        # Which of the route and the positions are still alive at the SNR
        # pass, at each fading draw and after reset.
        refs, seen = {}, []
        step_motion, snr_matrix = mobility.step_motion, radio.snr_matrix
        fading_power = radio.episode_fading_power

        def alive():
            return sorted(name for name, ref in refs.items() if ref() is not None)

        def walking(start, route, motion):
            refs["route"] = weakref.ref(route)
            return step_motion(start, route, motion)

        def scoring(bs, positions, params):
            seen.append(("snr pass", alive()))
            refs["positions"] = weakref.ref(positions)
            return snr_matrix(bs, positions, params)

        def fading(*args):
            seen.append(("fading draw", alive()))
            return fading_power(*args)

        monkeypatch.setattr(mobility, "step_motion", walking)
        monkeypatch.setattr(radio, "snr_matrix", scoring)
        monkeypatch.setattr(radio, "episode_fading_power", fading)
        batch.reset(range(80, 120))
        assert sorted(refs) == ["positions", "route"]
        assert seen == [("snr pass", [])] + [("fading draw", [])] * 40
        assert alive() == []


class TestStep:
    def test_threshold_updates_and_clipping(self, default_cfg):
        env = CellularNetworkEnv(default_cfg)
        env.reset(seed=0)
        obs = env.step(encode_action((1, 0, -1)))[0]
        assert obs[0] == pytest.approx(0.6, abs=1e-12)
        assert obs[1] == pytest.approx(0.5, abs=1e-12)
        assert obs[2] == pytest.approx(0.4, abs=1e-12)
        for _ in range(10):
            obs = env.step(26)[0]
        assert np.all(obs[:3] == 1.0), "clip keeps the walk at the top"
        for _ in range(20):
            obs = env.step(0)[0]
        assert np.all(obs[:3] == 0.0)

    def test_info_mirrors_observation(self, default_cfg):
        env = CellularNetworkEnv(default_cfg)
        env.reset(seed=3)
        obs, reward, done, info = env.step(13)
        assert np.array_equal(obs[:3], info["thresholds"])
        assert np.array_equal(obs[18:], info["utilities"])
        assert reward == pytest.approx(info["utilities"].mean(), rel=1e-12)
        assert not done

    def test_episode_ends_exactly_at_horizon(self, short_cfg):
        env = CellularNetworkEnv(short_cfg)
        env.reset(seed=1)
        for code in (2.9, "5", True):
            with pytest.raises(TypeError):
                env.step(code)
        for t in range(10):
            _, _, done, _ = env.step(np.int64(13))
            assert done == (t == 9)
        assert env.done
        with pytest.raises(RuntimeError):
            env.step(13)

    def test_rewards_bounded(self, default_cfg):
        env = CellularNetworkEnv(cs.default_config(fading="rician:3"))
        env.reset(seed=5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            obs, reward, done, _ = env.step(int(rng.integers(27)))
            assert 0.0 <= reward <= 1.0
            assert np.all((obs >= 0.0) & (obs <= 1.0))

    def test_frozen_scenario_is_a_fixed_point(self, frozen_cfg):
        env = CellularNetworkEnv(frozen_cfg)
        first = env.reset(seed=0)
        ref = None
        for _ in range(5):
            obs, reward, _, _ = env.step(13)
            if ref is None:
                ref = (obs.copy(), reward)
            assert np.array_equal(obs, ref[0])
            assert reward == ref[1]
        # With nothing moving the SNR block never changes from reset.
        assert np.array_equal(first[3:18], ref[0][3:18])

    def test_scored_block_drops_its_faded_rows(self, monkeypatch):
        # Nothing reads the faded SNRs once the last row is scored, so a
        # faded expert block of 128 peaks no higher than a fading-free one:
        # both peak while they build the observations (5.13 MiB, numpy 2.4;
        # 6.61 MiB while the faded block kept them to the end).
        env = CellularNetworkEnv(cs.default_config(fading="rayleigh", horizon=3))
        env.reset(seed=1)
        for _ in range(3):
            assert env._batch._faded is not None
            env.step(13)
        assert env._batch._faded is None

        batches, peaks = [], {}

        class Recording(EpisodeBatch):
            def __init__(self, cfg):
                super().__init__(cfg)
                batches.append(self)

        monkeypatch.setattr(cs.data, "EpisodeBatch", Recording)
        for fading in ("none", "rayleigh"):
            cfg = cs.default_config(fading=fading)
            cs.data.rollout(cfg, cs.make_policy("expert"), range(128))  # warm-up block
            peaks[fading] = peak_traced_bytes(cs.data.rollout, cfg, cs.make_policy("expert"),
                                              range(128, 256))
        assert len(batches) == 4 and all(b._faded is None for b in batches)
        assert peaks["rayleigh"] <= peaks["none"] + 64 * 1024


class TestDeterminism:
    @pytest.mark.parametrize("fading", ["none", "rayleigh", "rician:3"])
    def test_identical_runs_bit_identical(self, fading):
        cfg = cs.default_config(fading=fading, horizon=30)

        def run():
            env = CellularNetworkEnv(cfg)
            obs = [env.reset(seed=11)]
            rews = []
            for t in range(30):
                o, r, _, _ = env.step((t * 7) % 27)
                obs.append(o)
                rews.append(r)
            return np.stack(obs), np.array(rews)

        obs_a, rew_a = run()
        obs_b, rew_b = run()
        assert np.array_equal(obs_a, obs_b)
        assert np.array_equal(rew_a, rew_b)

    def test_fading_toggle_keeps_motion(self):
        # Fading draws come from their own stream, so switching the model
        # must not change where the users go.
        base = cs.default_config(horizon=20)
        faded = cs.default_config(fading="rayleigh", horizon=20)

        def positions(cfg):
            return positions_of(CellularNetworkEnv(cfg).reset, 9)[1]

        assert positions(base).shape == (21, 1, base.n_ues, 2)
        assert np.array_equal(positions(base), positions(faded))


# Seeds at the edges of numpy's uint32 word counts: 1, 2, 3, 4, 5 and 6 words.
_EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 2**160)


class TestStreams:
    """Every stream reset builds is numpy's own ``SeedSequence`` tree, state
    for state, whatever mix of seed sizes a block holds."""

    @settings(max_examples=60, deadline=None)
    @given(seeds=st.lists(st.sampled_from(_EDGE_SEEDS) | st.integers(0, 2**200),
                          min_size=1, max_size=6),
           n_ues=st.integers(1, 9))
    @example(seeds=list(range(2**32 - 3, 2**32 + 3)), n_ues=9)
    @example(seeds=list(_EDGE_SEEDS), n_ues=1)
    def test_equal_to_numpy_spawn_tree(self, seeds, n_ues):
        words = stream_words(seeds, n_ues)
        assert words.shape == (len(seeds), 2 + n_ues, 4)
        for seed, row in zip(seeds, words):
            mobility_ss, fading_ss, policy_ss = np.random.SeedSequence(seed).spawn(3)
            want = [fading_ss, policy_ss, *mobility_ss.spawn(n_ues)]
            for k, (w, ss) in enumerate(zip(row, want)):
                assert (generator(w).bit_generator.state
                        == np.random.default_rng(ss).bit_generator.state), (seed, k)

    def test_policy_stream_survives_pickle(self, short_cfg):
        batch = EpisodeBatch(short_cfg)
        batch.reset([2**64 + 5])
        g = batch.policy_rngs[0]
        g.random(3)
        copy = pickle.loads(pickle.dumps(g))
        assert copy.bit_generator.state == g.bit_generator.state
        assert np.array_equal(copy.bit_generator.seed_seq.words, g.bit_generator.seed_seq.words)
        assert np.array_equal(copy.integers(27, size=50), g.integers(27, size=50))

    def test_non_integer_seed_rejected(self, short_cfg):
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
            EpisodeBatch(short_cfg).reset([1.5])

    def test_negative_seed_rejected_with_the_lowest(self, short_cfg):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -2$"):
            EpisodeBatch(short_cfg).reset([3, -2, -1])


class TestResetDrawsTheEpisode:
    """Reset steps motion through the whole horizon up front; its rows are
    the per-step chain the actions never influence."""

    @pytest.mark.parametrize("motion", [
        MobilityConfig(),
        MobilityConfig(variant="limited", speed=4.0, init_radius=30.0, waypoint_radius=15.0),
        MobilityConfig(speed=0.0),
    ], ids=["full", "limited-drawn-anchors", "speed-0"])
    @pytest.mark.parametrize("seeds", [(5,), (0, 12, 7)], ids=["B1", "B3"])
    def test_rows_equal_a_per_step_chain(self, motion, seeds):
        cfg = NetworkConfig(mobility=motion, horizon=40)
        batch = EpisodeBatch(cfg)
        walk = positions_of(batch.reset, seeds)[1]
        # Fresh per-user streams, derived as reset derives them, each user
        # stepped one step at a time by the reference loop.
        rngs = [[np.random.default_rng(ss)
                 for ss in np.random.SeedSequence(s).spawn(3)[0].spawn(cfg.n_ues)]
                for s in seeds]
        states = [ref.init_positions(motion, cfg.n_ues, row) for row in rngs]
        positions, snrs = [], []
        for t in range(cfg.horizon + 1):
            if t:
                states = [[ref.step_motion(s, motion, g) for s, g in zip(row, streams)]
                          for row, streams in zip(states, rngs)]
            position = np.array([[s.position for s in row] for row in states])
            positions.append(position)
            snrs.append(radio.snr_matrix(np.array(cfg.bs_positions), position, cfg.radio))
        assert np.array_equal(walk, np.array(positions))
        assert np.array_equal(batch._snrs, np.array(snrs))
        if motion.speed > 0:
            assert not np.array_equal(positions[0], positions[-1])

    @pytest.mark.parametrize("fading", ["rayleigh", "rician:3"])
    def test_faded_rows_are_snr_rows_times_each_episodes_power(self, fading):
        """Reset keeps each episode's ``snr_matrix`` rows times the |H|^2
        rows of one ``episode_fading_power`` draw from its fading stream,
        bit for bit, in whichever block the episode runs."""
        cfg = cs.default_config(fading=fading, horizon=12)
        seeds = (3, 0, 11, 7, 2)
        whole = EpisodeBatch(cfg)
        whole.reset(seeds)
        for b, seed in enumerate(seeds):
            stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[1])
            power = radio.episode_fading_power(cfg.fading, stream, cfg.horizon + 1,
                                               (cfg.n_bs, cfg.n_ues))
            assert whole._faded[:, b].tobytes() == (whole._snrs[:, b] * power).tobytes()
        for part in (seeds[:2], seeds[2:]):
            split = EpisodeBatch(cfg)
            split.reset(part)
            cols = [seeds.index(s) for s in part]
            assert split._faded.tobytes() == whole._faded[:, cols].tobytes()

    def test_positions_do_not_depend_on_the_policy(self, short_cfg):
        # The SNR block of each step's observation, under two policies, and
        # the SNR matrices of the positions reset drew.
        n_bs, n_ues = short_cfg.n_bs, short_cfg.n_ues
        snr_block = slice(n_bs, n_bs + n_bs * n_ues)

        def snr_blocks(policy):
            env = CellularNetworkEnv(short_cfg)
            obs, walk = positions_of(env.reset, 4)
            out = [obs[snr_block]]
            while not env.done:
                out.append(env.step(policy(env))[0][snr_block])
            return np.stack(out), walk

        random, walk = snr_blocks(cs.RandomPolicy())
        expert, expert_walk = snr_blocks(cs.GreedyExpertPolicy())
        assert walk.shape == (short_cfg.horizon + 1, 1, n_ues, 2)
        assert np.array_equal(walk, expert_walk)
        drawn = radio.snr_matrix(np.array(short_cfg.bs_positions), walk[:, 0], short_cfg.radio)
        assert np.array_equal(random, drawn.reshape(short_cfg.horizon + 1, -1))
        assert np.array_equal(random, snr_blocks(cs.RandomPolicy())[0])
        assert np.array_equal(random, expert)


class TestPreview:
    @staticmethod
    def _replayed(cfg, seed, actions):
        """A fresh env stepped through ``actions`` without any preview."""
        env = CellularNetworkEnv(cfg)
        env.reset(seed=seed)
        for a in actions:
            env.step(a)
        return env

    def test_preview_matches_cloned_steps(self, default_cfg):
        history = [13, 5, 22]
        env = self._replayed(default_cfg, 21, history)
        preview = env.preview_step_rewards()
        assert preview.shape == (27,)
        assert np.array_equal(env.preview_step_rewards(), preview), "idempotent"
        for action in range(27):
            obs, reward, done, info = self._replayed(default_cfg, 21, history).step(action)
            assert preview[action] == reward, f"action {action}"
            # A replay that previews before it steps must give the same
            # transition as the replay that never previewed.
            previewing = self._replayed(default_cfg, 21, history)
            assert np.array_equal(previewing.preview_step_rewards(), preview)
            p_obs, p_reward, p_done, p_info = previewing.step(action)
            assert np.array_equal(p_obs, obs) and p_reward == reward and p_done == done
            assert info.keys() == p_info.keys()
            for key in info:
                assert np.array_equal(p_info[key], info[key]), key

    def test_preview_does_not_disturb_the_episode(self):
        # The random policy never previews, so ``a`` previews every third
        # step and previewed and un-previewed steps mix; the replay never
        # previews.
        for fading in ("none", "rayleigh", "rician:3"):
            cfg = cs.default_config(fading=fading, horizon=40)
            policy = cs.RandomPolicy()
            a = CellularNetworkEnv(cfg)
            b = CellularNetworkEnv(cfg)
            assert np.array_equal(a.reset(seed=33), b.reset(seed=33))
            previews = []
            for t in range(40):
                if t % 3 == 0:
                    previews.append(a.preview_step_rewards())
                action = policy(a)
                obs_a, rew_a, done_a, info_a = a.step(action)
                obs_b, rew_b, done_b, info_b = b.step(action)
                where = f"{fading}, step {t}"
                assert np.array_equal(obs_a, obs_b), where
                assert rew_a == rew_b and done_a == done_b, where
                assert info_a.keys() == info_b.keys()
                for key in info_a:
                    assert np.array_equal(info_a[key], info_b[key]), f"{key}: {where}"
            assert 0 < len(previews) < 40, f"{fading}: previewed and plain steps must mix"


@st.composite
def preview_states(draw):
    """A batch's thresholds on the 0.1 grid (0 and 1 included, where clipping
    makes two of a station's three thresholds equal) and its next SNR matrix:
    entries that copy one of their station's thresholds (exact ties), free
    entries, zeros and all-zero station rows."""
    n_bs, n_ues, b = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    step = cs.default_config().threshold_step
    thr = np.array(draw(st.lists(st.integers(0, 10), min_size=b * n_bs,
                                 max_size=b * n_bs))).reshape(b, n_bs) / 10.0
    ties = _unit(thr[..., None] + np.array([-step, 0.0, step]))  # (b, n_bs, 3)
    entry = st.integers(0, 2) | st.floats(0.0, 1.0) | st.just(0.0)
    picks = draw(st.lists(entry, min_size=b * n_bs * n_ues, max_size=b * n_bs * n_ues))
    snr = np.array([ties[r, i, p] if isinstance(p, int) else p
                    for (r, i, _), p in zip(np.ndindex(b, n_bs, n_ues), picks)])
    snr = snr.reshape(b, n_bs, n_ues)
    snr[np.array(draw(st.lists(st.booleans(), min_size=b * n_bs,
                               max_size=b * n_bs))).reshape(b, n_bs)] = 0.0
    return thr, snr, draw(st.sampled_from(["mean", "sum"]))


class TestPreviewMatchesPerActionReward:
    """The preview of every action equals ``reward_terms`` on that action's
    thresholds, bit for bit, whatever the preview shares between actions."""

    @settings(max_examples=150, deadline=None)
    @given(state=preview_states())
    def test_equal_to_reward_terms_of_each_action(self, state):
        thr, snr, aggregate = state
        b, n_bs, n_ues = snr.shape
        cfg = NetworkConfig(n_bs=n_bs, n_ues=n_ues,
                            bs_positions=tuple((10.0 * (i + 1), 10.0) for i in range(n_bs)),
                            utility=UtilityParams(aggregate=aggregate))
        batch = EpisodeBatch(cfg)
        batch.reset(range(b))
        # Replace the thresholds and the SNR row of the next step; the
        # preview keeps its (rewards, utilities) for ``step``.
        batch._taus[batch._t] = thr
        batch._snrs[batch._t + 1] = snr
        rewards = batch.preview_step_rewards()
        utils = batch._preview[1]
        moves = np.array([decode_action(a, n_bs) for a in range(cfg.n_actions)])
        want = mac.reward_terms(snr[:, None], _unit(thr[:, None, :] + moves * cfg.threshold_step),
                                cfg.utility)
        assert rewards.shape == (b, cfg.n_actions) and utils.shape == (b, cfg.n_actions, n_ues)
        assert np.array_equal(rewards, want[0])
        assert np.array_equal(utils, want[1])
