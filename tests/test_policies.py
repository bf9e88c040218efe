"""Behavioral tiers: expert lookahead, epsilon mixing, random baseline."""

import numpy as np
import pytest
import scipy.stats

import cellsim as cs
from cellsim.config import MobilityConfig, NetworkConfig
from cellsim.env import CellularNetworkEnv, EpisodeBatch
from cellsim.policies import GreedyExpertPolicy, MediumPolicy, RandomPolicy, make_policy


def rollout_actions(cfg, policy, seed, n_steps):
    env = CellularNetworkEnv(cfg)
    env.reset(seed=seed)
    actions = []
    for _ in range(n_steps):
        a = policy(env)
        actions.append(a)
        env.step(a)
    return actions


class TestExpert:
    def test_picks_the_previewed_argmax(self, default_cfg):
        env = CellularNetworkEnv(default_cfg)
        env.reset(seed=0)
        policy = GreedyExpertPolicy()
        for _ in range(10):
            preview = env.preview_step_rewards()
            action = policy(env)
            assert preview[action] == preview.max()
            env.step(action)

    def test_all_equal_previews_pick_code_zero(self):
        # Users parked far from every station: all 27 actions leave the
        # reward at the floor, so the tie-break must settle on code 0.
        mobility = MobilityConfig(variant="limited", speed=0.0,
                                  init_radius=0.0, waypoint_radius=0.0,
                                  anchors=((5.0, 5.0),) * 5)
        cfg = NetworkConfig(mobility=mobility, horizon=5)
        env = CellularNetworkEnv(cfg)
        env.reset(seed=0)
        preview = env.preview_step_rewards()
        assert preview.max() == preview.min() == pytest.approx(0.5, abs=1e-12)
        assert GreedyExpertPolicy()(env) == 0

    def test_policy_ids(self):
        assert GreedyExpertPolicy.policy_id == "expert"
        assert MediumPolicy().policy_id == "medium"
        assert RandomPolicy.policy_id == "random"


class TestMedium:
    def test_epsilon_zero_matches_expert(self):
        cfg = cs.default_config(horizon=30)
        expert_actions = rollout_actions(cfg, GreedyExpertPolicy(), 5, 30)
        medium_actions = rollout_actions(cfg, MediumPolicy(epsilon=0.0), 5, 30)
        assert expert_actions == medium_actions

    def test_epsilon_one_is_uniform(self):
        cfg = cs.default_config(horizon=100)
        actions = []
        for seed in range(30):
            actions += rollout_actions(cfg, MediumPolicy(epsilon=1.0), seed, 100)
        counts = np.bincount(actions, minlength=27)
        stat = scipy.stats.chisquare(counts)
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_intermediate_epsilon_mixes(self):
        cfg = cs.default_config(horizon=60)
        expert_actions = rollout_actions(cfg, GreedyExpertPolicy(), 2, 60)
        medium_actions = rollout_actions(cfg, MediumPolicy(epsilon=0.5), 2, 60)
        agree = sum(a == b for a, b in zip(expert_actions, medium_actions))
        assert 10 <= agree < 60, f"agreement {agree}/60"

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            MediumPolicy(epsilon=1.5)
        with pytest.raises(ValueError):
            MediumPolicy(epsilon=-0.1)

    @pytest.mark.parametrize("build", [MediumPolicy,
                                       lambda eps: make_policy("medium", epsilon=eps),
                                       lambda eps: make_policy("random", epsilon=eps)],
                             ids=["MediumPolicy", "make_policy-medium", "make_policy-random"])
    @pytest.mark.parametrize("epsilon", [True, np.True_, "0.3", None, float("nan")],
                             ids=["True", "np.True_", "str", "None", "nan"])
    def test_epsilon_must_be_a_number(self, build, epsilon):
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\]$"):
            build(epsilon)


class TestRandom:
    def test_uniform_over_codes(self):
        cfg = cs.default_config(horizon=100)
        actions = []
        for seed in range(30):
            actions += rollout_actions(cfg, RandomPolicy(), seed, 100)
        counts = np.bincount(actions, minlength=27)
        stat = scipy.stats.chisquare(counts)
        assert stat.pvalue > 0.01, f"chi-square p-value {stat.pvalue}"

    def test_seed_reproducible(self):
        cfg = cs.default_config(horizon=50)
        a = rollout_actions(cfg, RandomPolicy(), 9, 50)
        b = rollout_actions(cfg, RandomPolicy(), 9, 50)
        assert a == b


class TestRandomPlan:
    """The random tier draws an episode's remaining actions at its first
    ``act`` and reads one row per step."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40])
    def test_plan_equals_per_step_draws(self, short_cfg, seed):
        batch = EpisodeBatch(short_cfg)
        batch.reset([seed, seed + 1])
        got = []
        for _ in range(short_cfg.horizon):
            got.append(RandomPolicy().act(batch))
            batch.step(got[-1])
        streams = [np.random.default_rng(np.random.SeedSequence(s).spawn(3)[2])
                   for s in (seed, seed + 1)]
        want = [[g.integers(short_cfg.n_actions) for g in streams]
                for _ in range(short_cfg.horizon)]
        assert np.array_equal(np.array(got), np.array(want))

    def test_two_calls_in_one_step_agree(self, short_cfg):
        batch = EpisodeBatch(short_cfg)
        batch.reset([3, 4, 5])
        policy = RandomPolicy()
        for _ in range(short_cfg.horizon):
            first = policy.act(batch)
            assert np.array_equal(policy.act(batch), first)
            batch.step(first)

    def test_first_act_mid_episode(self, short_cfg):
        env = CellularNetworkEnv(short_cfg)
        env.reset(seed=11)
        expert, history = GreedyExpertPolicy(), []
        for _ in range(4):
            action = expert(env)
            history.append((action,) + env.step(action)[:2])
        tail = []
        while not env.done:
            tail.append(RandomPolicy()(env))
            env.step(tail[-1])
        # The expert draws nothing, so the plan starts at the stream's head.
        g = np.random.default_rng(np.random.SeedSequence(11).spawn(3)[2])
        assert tail == [g.integers(short_cfg.n_actions) for _ in range(short_cfg.horizon - 4)]
        # The expert steps replay unchanged on a fresh episode.
        replay = CellularNetworkEnv(short_cfg)
        replay.reset(seed=11)
        for action, obs, reward in history:
            got_obs, got_reward = replay.step(action)[:2]
            assert np.array_equal(got_obs, obs) and got_reward == reward

    def test_acting_outside_an_episode_fails(self, short_cfg):
        # The random tier refuses in its own act; the expert and medium tiers
        # reach EpisodeBatch.preview_step_rewards' guard.
        for policy, message in [
                (RandomPolicy(), "environment must be mid-episode to act"),
                (GreedyExpertPolicy(), "environment must be mid-episode to preview"),
                (MediumPolicy(), "environment must be mid-episode to preview")]:
            env = CellularNetworkEnv(short_cfg)
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                policy(env)
            env.reset(seed=2)
            while not env.done:
                env.step(policy(env))
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                policy(env)

    def test_reset_draws_a_fresh_plan(self, short_cfg):
        batch = EpisodeBatch(short_cfg)
        policy = RandomPolicy()
        episodes = []
        for seeds in ([8], [9], [8]):
            batch.reset(seeds)
            actions = []
            for _ in range(short_cfg.horizon):
                actions.append(int(policy.act(batch)[0]))
                batch.step(np.array(actions[-1:]))
            episodes.append(actions)
        assert episodes[0] == episodes[2] != episodes[1]
        assert episodes[0] == rollout_actions(short_cfg, RandomPolicy(), 8, short_cfg.horizon)


class TestFactory:
    def test_known_names(self):
        assert make_policy("expert").policy_id == "expert"
        assert make_policy("medium", epsilon=0.1).epsilon == 0.1
        assert make_policy("random").policy_id == "random"

    @pytest.mark.parametrize("name", ["expert", "random"])
    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, float("nan")])
    def test_epsilon_checked_for_every_tier(self, name, epsilon):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            make_policy(name, epsilon=epsilon)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("oracle")
