"""Trajectory collection, dataset files, ablation, and return statistics."""

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import cellsim as cs
from cellsim.data import (
    CAP,
    DatasetManifest,
    Trajectory,
    _block_results,
    ablate,
    collect,
    collect_medium_expert,
    collect_trajectory,
    load_dataset,
    map_seeds,
    return_stats,
    rollout,
    write_dataset,
)
from cellsim.env import CellularNetworkEnv, _action_code, _unit
from cellsim.harness import evaluate
from cellsim.policies import make_policy
from conftest import set_usable_cpus
from reference_impl import histogram_overlap


def _toy_traj(seed: int, policy_id: str, ret: float) -> Trajectory:
    """Minimal one-step trajectory with a chosen return."""
    return Trajectory(seed=seed, policy_id=policy_id, config_hash="toy",
                      observations=np.zeros((1, 3)),
                      actions=np.zeros(1, dtype=np.int64),
                      rewards=np.array([float(ret)]),
                      returns_to_go=np.array([float(ret)]))


class TestTrajectory:
    def test_returns_to_go_recurrence(self, short_cfg):
        traj = collect_trajectory(short_cfg, make_policy("random"), seed=3)
        assert len(traj) == short_cfg.horizon
        for t in range(len(traj) - 1):
            want = traj.rewards[t] + traj.returns_to_go[t + 1]
            assert traj.returns_to_go[t] == want, f"rtg broken at step {t}"
        assert traj.returns_to_go[-1] == traj.rewards[-1]
        assert traj.total_return == traj.returns_to_go[0]

    def test_bad_epsilon_fails_before_the_episode(self, short_cfg, monkeypatch):
        # A policy's epsilon set after it was built is checked as collect
        # checks it: a number above 1 would run every step at random, a
        # string would fail partway through the episode.
        blocks = []
        monkeypatch.setattr(cs.data, "_collect_block", lambda *args: blocks.append(args))
        policy = make_policy("medium")
        for eps, message in ((7, "at most 1, got 7.0"), (1.5, "at most 1, got 1.5"),
                             (True, "a finite number, got True"),
                             ("x", "a finite number, got 'x'")):
            policy.epsilon = eps
            with pytest.raises(ValueError, match=f"^epsilon must be {re.escape(message)}$"):
                collect_trajectory(short_cfg, policy, 3)
        assert blocks == []

    def test_record_round_trip(self, short_cfg):
        traj = collect_trajectory(short_cfg, make_policy("random"), seed=11)
        back = Trajectory.from_record(json.loads(json.dumps(traj.to_record())))
        assert back.seed == traj.seed
        assert back.policy_id == traj.policy_id
        assert back.config_hash == traj.config_hash
        assert np.array_equal(back.observations, traj.observations)
        assert np.array_equal(back.actions, traj.actions)
        assert np.array_equal(back.rewards, traj.rewards)
        assert np.array_equal(back.returns_to_go, traj.returns_to_go)

    def test_corrupted_total_return_rejected(self, short_cfg):
        rec = collect_trajectory(short_cfg, make_policy("random"), 0).to_record()
        rec["total_return"] += 1.0
        with pytest.raises(ValueError):
            Trajectory.from_record(rec)

    def test_edited_returns_to_go_rejected(self, short_cfg):
        # total_return still matches rtg[0], but the recurrence is broken.
        rec = collect_trajectory(short_cfg, make_policy("random"), 0).to_record()
        rec["steps"][0]["rtg"] += 1.0
        rec["total_return"] += 1.0
        with pytest.raises(ValueError, match="reversed cumulative sum of the rewards"):
            Trajectory.from_record(rec)


class TestCollect:
    def test_counts_seeds_and_steps(self, short_cfg):
        man = collect(short_cfg, make_policy("random"), n_traj=3, seed_base=40)
        assert man.counts() == {"random": 3}
        assert man.total_steps() == 3 * short_cfg.horizon
        assert [t.seed for t in man.tiers["random"]] == [40, 41, 42]
        assert man.meta["seed_ranges"] == {"random": [40, 43]}
        assert man.config_hash == short_cfg.canonical_hash()

    def test_deterministic(self, short_cfg):
        a = collect(short_cfg, make_policy("random"), 2, seed_base=5)
        b = collect(short_cfg, make_policy("random"), 2, seed_base=5)
        for ta, tb in zip(a.tiers["random"], b.tiers["random"]):
            assert np.array_equal(ta.rewards, tb.rewards)
            assert np.array_equal(ta.actions, tb.actions)

    def test_worker_count_does_not_change_output(self, short_cfg):
        serial = collect(short_cfg, make_policy("random"), 4, seed_base=9)
        pooled = collect(short_cfg, make_policy("random"), 4, seed_base=9,
                         workers=2)
        recs_a = [t.to_record() for t in serial.tiers["random"]]
        recs_b = [t.to_record() for t in pooled.tiers["random"]]
        assert recs_a == recs_b

    def test_empty_and_invalid_counts(self, short_cfg):
        man = collect(short_cfg, make_policy("random"), 0)
        assert man.counts() == {"random": 0}
        assert man.total_steps() == 0
        with pytest.raises(ValueError):
            collect(short_cfg, make_policy("random"), -1)

    def test_medium_epsilon_recorded(self, short_cfg):
        man = collect(short_cfg, make_policy("medium", epsilon=0.2), 1)
        assert man.meta["epsilon"] == 0.2

    def test_epsilon_set_after_construction_is_checked(self, short_cfg, tmp_path,
                                                       monkeypatch):
        policy = make_policy("medium")
        policy.epsilon = np.float32(0.25)
        man = collect(short_cfg, policy, 1)
        assert type(man.meta["epsilon"]) is float
        write_dataset(man, tmp_path / "d.jsonl")
        assert load_dataset(tmp_path / "d.jsonl").meta["epsilon"] == 0.25
        blocks = []
        monkeypatch.setattr(cs.data, "map_seeds", lambda *args: blocks.append(args))
        for eps, message in ((1.5, "at most 1, got 1.5"), (True, "a finite number, got True"),
                             ("0.2", "a finite number, got '0.2'")):
            policy.epsilon = eps
            with pytest.raises(ValueError, match=f"^epsilon must be {re.escape(message)}$"):
                collect(short_cfg, policy, 2)
        assert blocks == []

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, short_cfg, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            collect(short_cfg, make_policy("random"), 2, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            collect_medium_expert(short_cfg, 2, workers=workers)


def _stepped_one_by_one(cfg, policy, seeds):
    """JSON records and returns of one ``CellularNetworkEnv`` per seed,
    driven by the policy's single-episode call."""
    records, returns = [], []
    for seed in seeds:
        env = CellularNetworkEnv(cfg)
        obs = env.reset(seed)
        rows, actions, rewards = [], [], []
        done = False
        while not done:
            action = policy(env)
            next_obs, reward, done, _ = env.step(action)
            rows.append(obs)
            actions.append(action)
            rewards.append(reward)
            obs = next_obs
        rewards = np.array(rewards)
        rtg = np.cumsum(rewards[::-1])[::-1]
        traj = Trajectory(seed=seed, policy_id=policy.policy_id,
                          config_hash=cfg.canonical_hash(),
                          observations=np.array(rows), actions=np.array(actions),
                          rewards=rewards, returns_to_go=rtg)
        records.append(json.dumps(traj.to_record()))
        returns.append(traj.total_return)
    return records, returns


def _scenario(name: str) -> cs.NetworkConfig:
    """``variant/fading``, optionally ``/9-users-sum``: nine users (numpy
    sums eight or more terms pairwise) with summed station rates."""
    variant, fading, *wide = name.split("/")
    cfg = cs.default_config(mobility_variant=variant, fading=fading, horizon=20)
    if wide:
        cfg = dataclasses.replace(cfg, n_ues=9, utility=cs.UtilityParams(aggregate="sum"))
    return cfg


class _ExpertThenRandom:
    """The expert for the first ``SWITCH`` steps, then the random tier: with
    fading off, rows taken from the preview and rows scored in bulk mix."""

    policy_id = "expert-then-random"
    SWITCH = 6

    def __init__(self):
        self._expert, self._random = make_policy("expert"), make_policy("random")

    def act(self, batch):
        return (self._expert if batch._t < self.SWITCH else self._random).act(batch)

    def __call__(self, env):
        return int(self.act(env._batch)[0])


class TestBlockInvariance:
    """Episodes stepped together in blocks, in one or two processes, give
    the same bytes as one environment stepped per seed."""

    SEED_BASE = 300

    def _check(self, cfg, policy):
        assert 64 <= CAP, "n_traj=64 must fit in one block at workers=1"
        records, returns = _stepped_one_by_one(
            cfg, policy, range(self.SEED_BASE, self.SEED_BASE + 64))
        for n in (7, 64):
            for workers in (1, 2):
                where = f"n={n} workers={workers}"
                man = collect(cfg, policy, n, seed_base=self.SEED_BASE, workers=workers)
                got = [json.dumps(t.to_record()) for t in man.tiers[policy.policy_id]]
                assert got == records[:n], where
                res = evaluate(cfg, policy, n_episodes=n, seed_base=self.SEED_BASE,
                               workers=workers)
                assert json.dumps(res.returns) == json.dumps(returns[:n]), where

    @pytest.mark.parametrize("policy_name", ["expert", "medium", "random"])
    @pytest.mark.parametrize("scenario", ["full/none", "limited/rayleigh",
                                          "full/rician:3", "full/none/9-users-sum"])
    def test_blocks_match_single_episodes(self, scenario, policy_name):
        self._check(_scenario(scenario), make_policy(policy_name))

    @pytest.mark.parametrize("scenario", ["full/none", "limited/rayleigh"])
    def test_random_steps_after_expert_steps(self, scenario):
        self._check(_scenario(scenario), _ExpertThenRandom())


class TestBlockScoring:
    """``rollout`` scores a block's unscored rows once, after the last step,
    in one reward call per 16 rows: one call at horizon 12."""

    @pytest.mark.parametrize("policy_name", ["expert", "medium", "random"])
    @pytest.mark.parametrize("fading", ["none", "rayleigh", "rician:3"])
    def test_one_reward_call_per_block(self, fading, policy_name, monkeypatch):
        calls = []
        reward = cs.mac.reward

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return reward(*args, **kwargs)

        monkeypatch.setattr(cs.mac, "reward", counting)
        cfg = cs.default_config(fading=fading, horizon=12)
        rollout(cfg, make_policy(policy_name), range(5))
        assert len(calls) == 1, calls
        rollout(cfg, _ExpertThenRandom(), range(5), observe=False)
        assert len(calls) == 2, calls

    @pytest.mark.parametrize("policy", [make_policy("random"), _ExpertThenRandom()],
                             ids=["random", "expert-then-random"])
    @pytest.mark.parametrize("fading", ["none", "rayleigh", "rician:3"])
    def test_rows_scored_in_chunks_match_one_call(self, fading, policy, monkeypatch):
        # 41 rows, every one of them scored by ``score``, previewed or not.
        cfg = cs.default_config(fading=fading, horizon=40)
        unscored = 41
        calls = []
        reward = cs.mac.reward

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return reward(*args, **kwargs)

        monkeypatch.setattr(cs.mac, "reward", counting)
        chunked = rollout(cfg, policy, range(3))
        assert len(calls) == -(-unscored // 16) and sum(calls) == unscored, calls
        monkeypatch.setattr(cs.env, "_SCORE_CHUNK", 41)
        calls.clear()
        whole = rollout(cfg, policy, range(3))
        assert calls == [unscored]
        for got, want in zip(chunked, whole):
            assert got.tobytes() == want.tobytes()


class _CodeAt:
    """Acts code 13 in every episode, except at step ``at``, where the codes
    are an array of ``code``'s numpy type whose last entry is ``code``; keeps
    the batch it last acted on."""

    policy_id = "code-at"

    def __init__(self, code, at: int):
        self.code, self.at = code, at

    def act(self, batch):
        self.batch = batch
        codes = np.full(len(batch.policy_rngs), 13)
        if batch._t == self.at:
            codes = codes.astype(np.asarray(self.code).dtype)
            codes[-1] = self.code
        return codes


class TestPolicyActionCodes:
    """A policy's action codes are refused at the block boundary with the
    rules and messages of ``env._action_code``, before any row is scored:
    a non-integer at its step, before it is cast, and an integer out of
    range after the last step, which clipped it and never wrapped it."""

    BAD = [-1, -28, 27, 2 ** 40, np.int32(-1), 1.0, 2.5, True]

    @pytest.mark.parametrize("code", BAD, ids=repr)
    def test_bad_codes_refused_and_never_applied(self, short_cfg, code, tmp_path):
        n = short_cfg.n_actions
        with pytest.raises((TypeError, ValueError)) as want:
            _action_code(np.asarray(code).item(), n)
        refused = pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$")
        policy = _CodeAt(code, 3)
        with refused:
            rollout(short_cfg, policy, range(4))
        batch = policy.batch
        assert batch._n_scored == 0
        if isinstance(code, (bool, float)):
            assert batch._t == 3
        else:
            assert batch._t == short_cfg.horizon
            clipped = batch._moves[min(max(int(code), 0), n - 1)]
            assert np.array_equal(batch._taus[4, -1], _unit(batch._taus[3, -1] + clipped))
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            with refused:
                write_dataset(collect(short_cfg, _CodeAt(code, 3), 4, workers=workers), path)
            with refused:
                evaluate(short_cfg, _CodeAt(code, 3), n_episodes=4, workers=workers)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("codes", [4, np.array([4]), np.full((4, 1), 4)],
                             ids=["scalar", "one", "column"])
    def test_codes_not_one_per_episode_refused(self, short_cfg, codes, workers, forks):
        # Broadcast, one code would act for every episode of the block.
        class Fixed:
            policy_id = "fixed"

            def act(self, batch):
                return codes

        block = 4 // workers  # the caller's own block raises first
        refused = pytest.raises(ValueError, match=re.escape(
            f"policy returned action codes of shape {np.shape(codes)} at step 0"
            f" for a block of {block} episodes; need one per episode"))
        with refused:
            collect(short_cfg, Fixed(), 4, workers=workers)
        with refused:
            evaluate(short_cfg, Fixed(), n_episodes=4, workers=workers)
        assert len(forks) == 2 * (workers - 1)  # one pool per call

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, object])
    def test_integer_codes_of_any_width_are_taken(self, short_cfg, dtype):
        class Cast:
            def act(self, batch):
                return random.act(batch).astype(dtype)

        random = make_policy("random")
        want = rollout(short_cfg, random, range(4))
        got = rollout(short_cfg, Cast(), range(4))
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _seeds(cfg, policy, block):
    return list(block)


def _open_fds():
    return set(os.listdir("/proc/self/fd"))


def _assert_nothing_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


class TestPoolSize:
    # ``size`` processes run the blocks: the caller and ``size - 1`` forked
    # workers, or the caller alone at 1 CPU (written 0: nothing forked).
    @pytest.mark.parametrize("n, workers, size", [(2, 8, 2), (5, 3, 3), (3, 64, 3)])
    def test_pool_has_no_more_workers_than_blocks(self, n, workers, size, forks,
                                                  monkeypatch):
        set_usable_cpus(monkeypatch, 64)
        seeds = map_seeds(_seeds, [(None, None, 10, n)], workers)
        assert len(forks) == size - 1
        assert seeds == list(range(10, 10 + n))

    @pytest.mark.parametrize("n, workers, cpus, size",
                             [(3, 64, 2, 2), (100_000, 100_000, 2, 2), (5, 3, 1, 0),
                              (5, 1, 64, 1)])
    def test_pool_has_no_more_workers_than_cpus(self, n, workers, cpus, size, forks,
                                                monkeypatch):
        set_usable_cpus(monkeypatch, cpus)
        assert map_seeds(_seeds, [(None, None, 10, n)], workers) == list(range(10, 10 + n))
        assert len(forks) == max(size - 1, 0)

    def test_cpu_count_where_affinity_does_not_exist(self, forks, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert map_seeds(_seeds, [(None, None, 0, 5)], 8) == list(range(5))
        assert len(forks) == 2

    def test_workers_inherit_numpy_random(self):
        # A fresh interpreter, so that no earlier test has loaded numpy.random:
        # importing cellsim does not load it, and a call that forks loads it
        # before every fork, so no worker imports it on its own.
        script = textwrap.dedent("""
            import os, sys
            import cellsim as cs
            assert "numpy.random" not in sys.modules
            seen, fork = [], os.fork
            def recording():
                seen.append("numpy.random" in sys.modules)
                return fork()
            os.fork = recording
            os.sched_getaffinity = lambda pid: {0, 1}
            cfg = cs.default_config(horizon=3, fading="rayleigh")
            cs.evaluate(cfg, cs.RandomPolicy(), n_episodes=4, workers=2)
            print(seen)
        """)
        src = os.path.dirname(os.path.dirname(cs.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[True]"

    def test_blocks_run_in_process_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        set_usable_cpus(monkeypatch, 2)
        pids = map_seeds(lambda cfg, policy, block: [os.getpid()] * len(block),
                         [(None, None, 0, 6)], 3)
        assert pids == [os.getpid()] * 6


def _raise_boom_at_7(cfg, policy, block):
    if 7 in block:
        raise ValueError("boom")
    return list(block)


def _exit_3_at_6(cfg, policy, block):
    if 6 in block:
        os._exit(3)
    return list(block)


def _unpicklable_at_6(cfg, policy, block):
    return [lambda: None] if 6 in block else list(block)


def _sleep_at_3(cfg, policy, block):
    if 3 in block:
        time.sleep(60)
    return list(block)


def _raise_at_0_sleep_at_3(cfg, policy, block):
    if 0 in block:
        raise ValueError("boom")
    return _sleep_at_3(cfg, policy, block)


def _interrupt_at_0_sleep_at_3(cfg, policy, block):
    if 0 in block:
        raise KeyboardInterrupt
    return _sleep_at_3(cfg, policy, block)


def _raise_at_2_sleep_at_4(cfg, policy, block):
    if 2 in block:
        raise ValueError("boom")
    if 4 in block:
        time.sleep(60)
    return list(block)


class TestBlockCut:
    """A job of n seeds at ``workers`` is cut into contiguous blocks of
    ceil(n / count) seeds, count = workers * ceil(n / (workers * CAP)): as
    large and as even as CAP and the worker count allow."""

    @pytest.mark.parametrize("n, workers, sizes", [
        (400, 2, [100] * 4), (300, 2, [75] * 4), (258, 1, [86] * 3), (1000, 2, [125] * 8),
        (1000, 1, [125] * 8), (5, 3, [2, 2, 1]), (256, 2, [128] * 2), (0, 2, []),
    ])
    def test_blocks(self, n, workers, sizes, monkeypatch):
        set_usable_cpus(monkeypatch, 1)  # every block runs in this process
        blocks = []

        def recording(cfg, policy, block):
            blocks.append(block)
            return list(block)

        assert map_seeds(recording, [(None, None, 7, n)], workers) == list(range(7, 7 + n))
        assert [len(block) for block in blocks] == sizes
        assert [block.start for block in blocks] == [7 + sum(sizes[:i])
                                                     for i in range(len(sizes))]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestForkedWorkers:
    """Whatever a worker or the caller's own share does, the caller sees the
    results or an error, and no child process or pipe is left after the
    call."""

    # At workers=5 and 2 CPUs: blocks of 2; the caller runs blocks 0, 2 and
    # 4, one forked worker blocks 1 and 3.
    JOB = [(None, None, 0, 10)]

    def test_success_leaves_nothing(self, forks):
        fds = _open_fds()
        assert map_seeds(_seeds, self.JOB, 5) == list(range(10))
        assert len(forks) == 1
        _assert_nothing_left(fds)

    def test_caller_runs_share_0(self, forks):
        pids = map_seeds(lambda cfg, policy, block: [os.getpid()] * len(block), self.JOB, 5)
        assert len(forks) == 1
        caller = [pid for i, pid in enumerate(pids) if (i // 2) % 2 == 0]
        worker = [pid for i, pid in enumerate(pids) if (i // 2) % 2 == 1]
        assert caller == [os.getpid()] * 6
        assert len(set(worker)) == 1 and worker[0] != os.getpid()

    def test_results_larger_than_a_pipe_arrive_in_block_order(self, forks):
        big = map_seeds(lambda cfg, policy, block: [np.full(200_000, s) for s in block],
                        [(None, None, 0, 6)], 6)
        assert len(forks) == 1
        assert [int(a[0]) for a in big] == list(range(6))
        assert all((a == a[0]).all() for a in big)

    def test_worker_exception_is_raised_in_caller(self, forks):
        fds = _open_fds()
        with pytest.raises(ValueError, match="^boom$") as info:
            map_seeds(_raise_boom_at_7, self.JOB, 2)
        assert "_raise_boom_at_7" in str(info.value.__cause__)
        _assert_nothing_left(fds)

    @pytest.mark.parametrize("fn, status", [(_exit_3_at_6, 3), (_unpicklable_at_6, 1)])
    def test_worker_without_result_is_named(self, fn, status, forks):
        fds = _open_fds()
        with pytest.raises(RuntimeError,
                           match=f"^worker 1 exited with status {status} without a result$"):
            map_seeds(fn, self.JOB, 5)
        _assert_nothing_left(fds)

    def test_failure_stops_the_other_workers(self, forks, monkeypatch):
        # At 3 CPUs: worker 1 raises in block 1 while worker 2 sleeps in block 2.
        set_usable_cpus(monkeypatch, 3)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(ValueError, match="^boom$") as info:
            map_seeds(_raise_at_2_sleep_at_4, self.JOB, 5)
        assert "_raise_at_2_sleep_at_4" in str(info.value.__cause__)
        assert len(forks) == 2
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)

    @pytest.mark.parametrize("fn, exc", [(_raise_at_0_sleep_at_3, ValueError),
                                         (_interrupt_at_0_sleep_at_3, KeyboardInterrupt)])
    def test_failure_in_the_callers_block_stops_every_worker(self, fn, exc, forks):
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(exc) as info:
            map_seeds(fn, self.JOB, 5)
        assert info.value.__cause__ is None  # raised as it is, not from a worker
        assert len(forks) == 1
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)

    def test_interrupt_while_reading_stops_every_worker(self, forks, monkeypatch):
        def interrupted(file):
            raise KeyboardInterrupt

        monkeypatch.setattr(pickle, "load", interrupted)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            map_seeds(_sleep_at_3, self.JOB, 5)  # the caller's block 0 ends first
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)

    def test_failed_fork_stops_the_started_workers(self, forks, monkeypatch):
        fork = os.fork

        def second_fails():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        set_usable_cpus(monkeypatch, 3)  # two workers to fork besides the caller
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(BlockingIOError):
            map_seeds(lambda cfg, policy, block: time.sleep(60), self.JOB, 5)
        assert len(forks) == 1
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)

    # The blocks of JOB at workers=5 and 2 CPUs, as map_seeds cuts them.
    BLOCKS = [(None, None, range(s, s + 2)) for s in range(0, 10, 2)]

    def test_consumer_that_stops_early_leaves_nothing(self, forks):
        # The caller's block 0 is taken while the worker sleeps in block 1.
        fds = _open_fds()
        start = time.monotonic()
        with contextlib.closing(_block_results(_sleep_at_3, self.BLOCKS, 2)) as results:
            assert next(results) == [0, 1]
        assert len(forks) == 1
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)

    def test_consumer_that_raises_mid_stream_leaves_nothing(self, forks):
        fds = _open_fds()
        start = time.monotonic()
        taken = []
        with pytest.raises(ValueError, match="^consumer$") as info:
            with contextlib.closing(_block_results(_sleep_at_3, self.BLOCKS, 2)) as results:
                for block in results:
                    taken.append(block)
                    raise ValueError("consumer")
        assert info.value.__cause__ is None
        assert taken == [[0, 1]]
        assert len(forks) == 1
        assert time.monotonic() - start < 30
        _assert_nothing_left(fds)


class TestCollectMediumExpert:
    def test_tiers_and_disjoint_seed_ranges(self, short_cfg):
        man = collect_medium_expert(short_cfg, n_per_tier=3, seed_base=100)
        assert man.counts() == {"expert": 3, "medium": 3}
        assert [t.seed for t in man.tiers["expert"]] == [100, 101, 102]
        assert [t.seed for t in man.tiers["medium"]] == [103, 104, 105]
        assert man.meta["seed_ranges"] == {"expert": [100, 103],
                                           "medium": [103, 106]}

    def test_negative_count_names_its_parameter(self, short_cfg):
        with pytest.raises(ValueError, match="^n_per_tier must be at least 0, got -1$"):
            collect_medium_expert(short_cfg, -1)

    def test_bad_epsilon_fails_before_any_episode(self, short_cfg, monkeypatch):
        blocks = []
        rollout = cs.data.rollout

        def counting(cfg, policy, seeds, *args, **kwargs):
            blocks.append(seeds)
            return rollout(cfg, policy, seeds, *args, **kwargs)

        monkeypatch.setattr(cs.data, "rollout", counting)
        with pytest.raises(ValueError, match=r"^epsilon must be at most 1, got 7\.0$"):
            collect_medium_expert(short_cfg, 3, epsilon=7)
        assert blocks == []

    def test_numpy_epsilon_is_written_as_a_float(self, short_cfg, tmp_path):
        man = collect_medium_expert(short_cfg, 1, epsilon=np.float32(0.25))
        assert type(man.meta["epsilon"]) is float
        write_dataset(man, tmp_path / "d.jsonl")
        assert load_dataset(tmp_path / "d.jsonl").meta["epsilon"] == 0.25
        same = collect_medium_expert(short_cfg, 1, epsilon=0.25)
        assert ([t.to_record() for t in man.all_trajectories()]
                == [t.to_record() for t in same.all_trajectories()])

    def test_both_tiers_share_one_process_pool(self, short_cfg, forks):
        pooled = collect_medium_expert(short_cfg, 4, seed_base=20, workers=2)
        assert len(forks) == 1
        serial = collect_medium_expert(short_cfg, 4, seed_base=20)
        assert len(forks) == 1, "workers=1 forks nothing"
        assert pooled.meta == serial.meta
        assert ([t.to_record() for t in pooled.all_trajectories()]
                == [t.to_record() for t in serial.all_trajectories()])

    # A short horizon; at n=65 and workers=3 the blocks are 44, 44 and 42
    # seeds, so block 1 holds both tiers, and at n=129 (workers=1) the 258
    # seeds cross CAP into three blocks of 86, the second of them mixed.
    @pytest.mark.parametrize("scenario", ["full/none", "limited/rayleigh", "full/rician:3"])
    @pytest.mark.parametrize("n, workers", [(n, w) for n in (0, 1, 3, 65) for w in (1, 2, 3)]
                             + [(129, 1)])
    def test_equals_one_collect_per_tier(self, scenario, n, workers, forks, monkeypatch):
        set_usable_cpus(monkeypatch, 3)
        variant, fading = scenario.split("/")
        cfg = cs.default_config(mobility_variant=variant, fading=fading, horizon=4)
        both = collect_medium_expert(cfg, n, seed_base=50, workers=workers)
        for tier, seed_base in (("expert", 50), ("medium", 50 + n)):
            one = collect(cfg, make_policy(tier), n, seed_base=seed_base, workers=workers)
            want = [json.dumps(t.to_record()) for t in one.tiers[tier]]
            assert [json.dumps(t.to_record()) for t in both.tiers[tier]] == want, tier

    def test_both_tiers_run_as_one_block(self, short_cfg, monkeypatch):
        blocks = []
        rollout = cs.data.rollout

        def recording(cfg, policy, seeds, *args, **kwargs):
            blocks.append(seeds)
            return rollout(cfg, policy, seeds, *args, **kwargs)

        monkeypatch.setattr(cs.data, "rollout", recording)
        collect_medium_expert(short_cfg, 10)
        assert blocks == [range(0, 20)]

    def test_expert_episodes_draw_nothing_from_their_streams(self, short_cfg, monkeypatch):
        batches = []

        class Recording(cs.env.EpisodeBatch):
            def reset(self, seeds):
                super().reset(seeds)
                batches.append(self)

        monkeypatch.setattr(cs.data, "EpisodeBatch", Recording)
        collect_medium_expert(short_cfg, 3, seed_base=40)
        (batch,) = batches
        fresh = cs.env.EpisodeBatch(short_cfg)
        fresh.reset(range(40, 46))
        states = [[g.bit_generator.state for g in b.policy_rngs] for b in (batch, fresh)]
        assert states[0][:3] == states[1][:3], "an expert episode drew from its stream"
        assert all(a != b for a, b in zip(states[0][3:], states[1][3:])), \
            "a medium episode drew no coin"

    def test_tier_iteration_order(self):
        man = DatasetManifest(tiers={"random": [_toy_traj(0, "random", 1.0)],
                                     "zeta": [_toy_traj(1, "zeta", 2.0)],
                                     "expert": [_toy_traj(2, "expert", 3.0)]},
                              config_hash="toy")
        order = [t.policy_id for t in man.all_trajectories()]
        assert order == ["expert", "random", "zeta"]

    def test_tiers_are_written_in_name_order(self, tmp_path):
        names = ("random", "zeta", "expert", "alpha")
        man = DatasetManifest(tiers={name: [_toy_traj(i, name, float(i))]
                                     for i, name in enumerate(names)},
                              config_hash="toy")
        first = tmp_path / "set.jsonl"
        write_dataset(man, first)
        written = [json.loads(line)["policy_id"] for line in first.read_text().splitlines()]
        assert written == sorted(names)
        second = tmp_path / "again.jsonl"
        write_dataset(load_dataset(first), second)
        assert second.read_bytes() == first.read_bytes()


class TestAblate:
    @staticmethod
    def _manifest(n_expert: int = 10, n_medium: int = 10) -> DatasetManifest:
        tiers = {"expert": [_toy_traj(i, "expert", 90.0 + i)
                            for i in range(n_expert)],
                 "medium": [_toy_traj(100 + i, "medium", 70.0 + i)
                            for i in range(n_medium)]}
        return DatasetManifest(tiers=tiers, config_hash="toy",
                               meta={"seed_ranges": {"expert": [0, n_expert]}})

    def test_noop_returns_independent_copy(self):
        man = self._manifest()
        out = ablate(man)
        assert out.counts() == man.counts()
        assert out.meta == man.meta
        assert "ablation" not in out.meta
        assert out.warnings == man.warnings
        out.tiers["expert"].pop()
        out.meta["seed_ranges"]["expert"][0] = 999
        assert len(man.tiers["expert"]) == 10
        assert man.meta["seed_ranges"]["expert"][0] == 0

    def test_half_drop_keeps_order(self):
        out = ablate(self._manifest(), drop_expert=0.5, seed=1)
        assert out.counts() == {"expert": 5, "medium": 10}
        kept = [t.seed for t in out.tiers["expert"]]
        assert kept == sorted(kept), "survivors out of original order"
        assert out.meta["ablation"] == {"drop_expert": 0.5, "drop_medium": 0.0,
                                        "seed": 1,
                                        "parent_counts": {"expert": 10,
                                                          "medium": 10}}

    def test_seeded_and_total_drop(self):
        man = self._manifest()
        first = [t.seed for t in ablate(man, drop_medium=0.3, seed=4).tiers["medium"]]
        again = [t.seed for t in ablate(man, drop_medium=0.3, seed=4).tiers["medium"]]
        assert first == again
        assert len(first) == 7
        assert ablate(man, drop_expert=1.0).counts()["expert"] == 0

    def test_empty_tier_warns(self):
        man = self._manifest(n_medium=0)
        out = ablate(man, drop_medium=0.5)
        assert out.counts() == {"expert": 10, "medium": 0}
        assert any("medium" in w for w in out.warnings)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ablate(self._manifest(), drop_expert=1.5)
        with pytest.raises(ValueError):
            ablate(self._manifest(), drop_medium=-0.1)

    @pytest.mark.parametrize("drops", [{}, {"drop_expert": 0.5}], ids=["none", "expert"])
    def test_negative_seed_rejected(self, drops):
        with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
            ablate(self._manifest(), seed=-1, **drops)

    @pytest.mark.parametrize("seed", [True, False, np.True_, 2.0],
                             ids=["True", "False", "np.True_", "2.0"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            ablate(self._manifest(), drop_expert=0.5, seed=seed)

    @pytest.mark.parametrize("tier", ["expert", "medium"])
    @pytest.mark.parametrize("frac", ["0.5", True, False, np.True_, None],
                             ids=["str", "True", "False", "np.True_", "None"])
    def test_non_numeric_fraction_rejected(self, tier, frac):
        with pytest.raises(ValueError, match=rf"^drop_{tier} must be a finite number, "
                                             rf"got {re.escape(repr(frac))}$"):
            ablate(self._manifest(), **{f"drop_{tier}": frac})

    @pytest.mark.parametrize("frac", [np.float64(0.5), np.float32(0.5), 1, np.int64(1)],
                             ids=["float64", "float32", "int", "int64"])
    def test_numpy_and_integer_fractions_accepted(self, frac):
        out = ablate(self._manifest(), drop_expert=frac, seed=np.int64(1))
        assert out.counts()["expert"] == round((1.0 - float(frac)) * 10)
        assert type(out.meta["ablation"]["drop_expert"]) is float
        assert type(out.meta["ablation"]["seed"]) is int


class TestReturnStats:
    def test_histograms_cover_all_returns(self):
        man = TestAblate._manifest()
        stats = return_stats(man, bins=12)
        assert len(stats["bin_edges"]) == 13
        for tier in ("expert", "medium"):
            entry = stats["tiers"][tier]
            assert sum(entry["histogram"]) == entry["n"] == 10
        assert stats["tiers"]["expert"]["min"] == 90.0
        assert stats["tiers"]["expert"]["max"] == 99.0
        assert stats["tiers"]["medium"]["mean"] == pytest.approx(74.5)

    def test_empty_manifest_and_bad_bins(self):
        empty = DatasetManifest(tiers={"expert": []}, config_hash="toy")
        assert return_stats(empty) == {"bin_edges": [], "tiers": {}}
        with pytest.raises(ValueError):
            return_stats(TestAblate._manifest(), bins=0)

    def test_overlap_bounds(self):
        near = DatasetManifest(
            tiers={"expert": [_toy_traj(i, "expert", 10.0 + i) for i in range(8)],
                   "medium": [_toy_traj(9 + i, "medium", 12.0 + i) for i in range(8)]},
            config_hash="toy")
        stats = return_stats(near, bins=10)
        assert histogram_overlap(stats, "expert", "expert") == 1.0
        assert 0.0 < histogram_overlap(stats, "expert", "medium") < 1.0

    def test_disjoint_tiers_share_nothing(self):
        far = DatasetManifest(
            tiers={"expert": [_toy_traj(i, "expert", 100.0 + i) for i in range(6)],
                   "medium": [_toy_traj(9 + i, "medium", float(i)) for i in range(6)]},
            config_hash="toy")
        stats = return_stats(far, bins=20)
        assert histogram_overlap(stats, "expert", "medium") == 0.0
        assert histogram_overlap(stats, "medium", "expert") == 0.0


class TestDatasetFiles:
    def test_write_load_write_is_byte_identical(self, short_cfg, tmp_path):
        man = collect_medium_expert(short_cfg, n_per_tier=2, seed_base=0)
        first = tmp_path / "set.jsonl"
        digest = write_dataset(man, first)
        assert digest == hashlib.sha256(first.read_bytes()).hexdigest()

        loaded = load_dataset(first)
        second = tmp_path / "again.jsonl"
        write_dataset(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        sidecar_a = (tmp_path / "set.jsonl.manifest.json").read_text()
        sidecar_b = (tmp_path / "again.jsonl.manifest.json").read_text()
        assert json.loads(sidecar_a)["stats"] == json.loads(sidecar_b)["stats"]

    def test_load_restores_metadata(self, short_cfg, tmp_path):
        man = collect_medium_expert(short_cfg, n_per_tier=2, seed_base=7)
        path = tmp_path / "set.jsonl"
        write_dataset(man, path)
        loaded = load_dataset(path)
        assert loaded.counts() == {"expert": 2, "medium": 2}
        assert loaded.config_hash == man.config_hash
        assert loaded.meta["seed_ranges"] == {"expert": [7, 9], "medium": [9, 11]}

    def test_load_without_sidecar(self, short_cfg, tmp_path):
        man = collect(short_cfg, make_policy("random"), 2)
        path = tmp_path / "set.jsonl"
        write_dataset(man, path)
        (tmp_path / "set.jsonl.manifest.json").unlink()
        loaded = load_dataset(path)
        assert loaded.counts() == {"random": 2}
        assert loaded.meta == {}

    def test_manifest_without_trajectories_is_not_written(self, short_cfg, tmp_path):
        path = tmp_path / "empty.jsonl"
        with pytest.raises(ValueError, match="has no trajectories"):
            write_dataset(collect(short_cfg, make_policy("random"), 0), path)
        assert list(tmp_path.iterdir()) == []

    def test_manifest_mixing_configs_is_not_written(self, short_cfg, tmp_path):
        # Tiers merged from two horizons: load_dataset would refuse the file.
        expert = collect(short_cfg, make_policy("expert"), 1)
        medium = collect(cs.default_config(horizon=3), make_policy("medium"), 1)
        mixed = DatasetManifest(tiers={**expert.tiers, **medium.tiers},
                                config_hash=expert.config_hash)
        with pytest.raises(ValueError, match="would mix configs: trajectory seed=0 "
                                             r"\(medium\)"):
            write_dataset(mixed, tmp_path / "mixed.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_with_a_mislabelled_tier_is_not_written(self, short_cfg, tmp_path):
        # load_dataset files records by policy_id, so it would count these
        # as random, not expert.
        random = collect(short_cfg, make_policy("random"), 2)
        mislabelled = DatasetManifest(tiers={"expert": random.tiers["random"]},
                                      config_hash=random.config_hash)
        with pytest.raises(ValueError, match="would mislabel a tier: trajectory seed=0 "
                                             r"\(random\) is in tier expert"):
            write_dataset(mislabelled, tmp_path / "mislabelled.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_with_a_non_finite_number_is_not_written(self, tmp_path):
        # load_dataset refuses NaN and Infinity, so a write must not make them.
        man = collect(cs.default_config(horizon=3), make_policy("random"), 2, seed_base=5)
        man.tiers["random"][1].observations[0, 0] = np.nan
        path = tmp_path / "nan.jsonl"
        with pytest.raises(ValueError, match="would hold a non-finite number: trajectory "
                                             r"seed=6 \(random\)"):
            write_dataset(man, path)
        assert list(tmp_path.iterdir()) == []
        man.tiers["random"][1].observations[0, 0] = 0.5
        man.meta["note"] = float("inf")
        with pytest.raises(ValueError, match=re.escape(f"{path}.manifest.json would hold "
                                                       "a non-finite number")):
            write_dataset(man, path)
        assert list(tmp_path.iterdir()) == []

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_mixed_config_hashes_rejected(self, short_cfg, tmp_path):
        rec = collect_trajectory(short_cfg, make_policy("random"), 0).to_record()
        other = dict(rec, config_hash="somethingelse")
        path = tmp_path / "mixed.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(other) + "\n")
        with pytest.raises(ValueError):
            load_dataset(path)

    @pytest.mark.parametrize("bad_line, message", [
        ("[]", "line 2: expected a JSON object, got list"),
        ("7", "line 2: expected a JSON object, got int"),
        ("EMPTY_STEPS", "line 2: trajectory record has no steps"),
        ("{\"seed\": 1}", "line 2: missing field 'steps'"),
        ("{not json", "line 2: Expecting property name"),
    ])
    def test_malformed_line_names_its_line_number(self, short_cfg, tmp_path,
                                                  bad_line, message):
        rec = collect_trajectory(short_cfg, make_policy("random"), 0).to_record()
        if bad_line == "EMPTY_STEPS":
            bad_line = json.dumps(dict(rec, steps=[]))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n" + bad_line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} {message}")):
            load_dataset(path)

    @pytest.mark.parametrize("blank", ["", "  \t"], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("sidecar", [False, True], ids=["bare", "sidecar"])
    def test_blank_line_names_its_line_number(self, short_cfg, tmp_path, blank, sidecar):
        # Skipped, a blank line would load and then write back other bytes.
        path = tmp_path / "set.jsonl"
        write_dataset(collect(short_cfg, make_policy("random"), 2), path)
        if not sidecar:
            (tmp_path / "set.jsonl.manifest.json").unlink()
        first, second = path.read_text().splitlines()
        path.write_text(f"{first}\n{blank}\n{second}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: Expecting value")):
            load_dataset(path)

    def test_inexact_record_rejected(self, inexact_dataset):
        path, message = inexact_dataset
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: {message}")):
            load_dataset(path)

    def test_sidecar_must_be_an_object(self, short_cfg, tmp_path):
        path = tmp_path / "set.jsonl"
        write_dataset(collect(short_cfg, make_policy("random"), 1), path)
        (tmp_path / "set.jsonl.manifest.json").write_text("[]\n")
        with pytest.raises(ValueError, match="manifest.json: expected a JSON object"):
            load_dataset(path)

    @pytest.mark.parametrize("edit, message", [
        ({"meta": 5}, "meta must be a JSON object"),
        ({"warnings": 7}, "warnings must be a list of strings"),
        ({"warnings": ["ok", 1]}, "warnings must be a list of strings"),
        ({"data_sha256": "0" * 64}, "data_sha256 does not match"),
        ({"config_hash": "0" * 64}, "config_hash does not match the records"),
        ({"counts": {"random": 99}}, "counts {'random': 99} do not match"),
        ({"counts": {"random": 2, "expert": 1}}, "counts {'random': 2, 'expert': 1} do not"),
        ({"counts": {}}, "counts {} do not match the records"),
        ({"counts": 2}, "counts 2 do not match"),
        ({"meta": {"epsilon": float("nan")}}, "NaN is not a finite number"),
    ], ids=["meta-int", "warnings-int", "warnings-non-string", "digest", "config-hash",
            "counts-99", "counts-extra-tier", "counts-empty", "counts-int", "meta-NaN"])
    def test_malformed_sidecar_rejected(self, short_cfg, tmp_path, edit, message):
        path = tmp_path / "set.jsonl"
        write_dataset(collect(short_cfg, make_policy("random"), 2), path)
        sidecar_path = tmp_path / "set.jsonl.manifest.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar_path.write_text(json.dumps({**sidecar, **edit}))
        with pytest.raises(ValueError, match=re.escape(f"manifest.json: {message}")):
            load_dataset(path)

    def test_sidecar_may_list_an_emptied_tier(self, short_cfg, tmp_path):
        path = tmp_path / "set.jsonl"
        write_dataset(ablate(collect_medium_expert(short_cfg, 2), drop_expert=1.0), path)
        sidecar = json.loads((tmp_path / "set.jsonl.manifest.json").read_text())
        assert sidecar["counts"] == {"expert": 0, "medium": 2}
        assert load_dataset(path).counts() == {"medium": 2}

    def test_edited_data_fails_the_sidecar_digest(self, short_cfg, tmp_path):
        path = tmp_path / "set.jsonl"
        write_dataset(collect(short_cfg, make_policy("random"), 2), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["steps"][3]["obs"][0] = 0.25  # passes every per-record check
        path.write_text(lines[0] + "\n" + json.dumps(rec, separators=(",", ":")) + "\n")
        with pytest.raises(ValueError, match="data_sha256 does not match"):
            load_dataset(path)

    def test_line_errors_come_before_the_digest(self, short_cfg, tmp_path):
        path = tmp_path / "set.jsonl"
        write_dataset(collect(short_cfg, make_policy("random"), 2), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["steps"][0]["rtg"] += 1.0
        rec["total_return"] += 1.0
        path.write_text(lines[0] + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: trajectory")):
            load_dataset(path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_partial_file(self, short_cfg, tmp_path,
                                                 monkeypatch, existing):
        path = tmp_path / "set.jsonl"
        if existing:
            write_dataset(collect(short_cfg, make_policy("random"), 1, seed_base=9), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        calls = []
        to_record = Trajectory.to_record

        def fail_on_second(traj):
            calls.append(traj.seed)
            if len(calls) == 2:
                raise RuntimeError("serialization failed")
            return to_record(traj)

        monkeypatch.setattr(Trajectory, "to_record", fail_on_second)
        with pytest.raises(RuntimeError, match="serialization failed"):
            write_dataset(collect(short_cfg, make_policy("random"), 3), path)
        assert len(calls) == 2  # the first record was written before the failure
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_sidecar_stats_match_manifest(self, short_cfg, tmp_path):
        man = collect(short_cfg, make_policy("random"), 3, seed_base=2)
        path = tmp_path / "set.jsonl"
        write_dataset(man, path)
        sidecar = json.loads((tmp_path / "set.jsonl.manifest.json").read_text())
        assert sidecar["counts"] == {"random": 3}
        assert sidecar["stats"] == man.summary_stats()
        assert sidecar["config_hash"] == man.config_hash
