"""End-to-end acceptance checks on the shipped defaults.

Each test pins one external guarantee of the package: observation and
action layout, the dataset collection protocol, the fading reward bound,
utility concavity, fading sampler law, return ordering across channel
models, the mobility variant contrast, cross-process determinism, reward
equivalence against an independent scalar transcription, and scheduler
fairness with the reward extremes.  Runtime budgets are asserted so the
suite stays usable as a routine gate.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sstats

import cellsim as cs
from cellsim import mac, mobility, radio
from cellsim.config import parse_fading
from cellsim.data import ablate, collect_medium_expert, return_stats
from cellsim.env import CellularNetworkEnv, decode_action
from cellsim.harness import fading_sweep
from cellsim.policies import make_policy
from reference_impl import encode_action, histogram_overlap, reference_reward

DATASET_SIZE = 500  # trajectories per tier in the default protocol


@pytest.fixture(scope="module")
def full_dataset():
    t0 = time.monotonic()
    man = collect_medium_expert(cs.default_config(), DATASET_SIZE,
                                seed_base=0, workers=4)
    return man, time.monotonic() - t0


@pytest.fixture(scope="module")
def limited_dataset():
    t0 = time.monotonic()
    man = collect_medium_expert(cs.default_config(mobility_variant="limited"),
                                DATASET_SIZE, seed_base=0, workers=4)
    return man, time.monotonic() - t0


def test_observation_layout_and_action_bijection():
    t0 = time.monotonic()
    env = CellularNetworkEnv(cs.default_config())
    obs = env.reset(0)
    assert env.obs_dim == 23
    assert obs.shape == (23,)
    assert env.n_actions == 27

    seen = set()
    for code in range(27):
        deltas = decode_action(code, 3)
        assert len(deltas) == 3
        assert all(d in (-1, 0, 1) for d in deltas)
        assert encode_action(deltas, 3) == code
        seen.add(deltas)
    assert len(seen) == 27
    assert time.monotonic() - t0 < 1.0


def test_default_dataset_protocol_and_ablation_splits(full_dataset):
    man, collect_time = full_dataset
    t0 = time.monotonic()
    assert man.counts() == {"expert": DATASET_SIZE, "medium": DATASET_SIZE}
    assert man.total_steps() == 100_000
    for tier in ("expert", "medium"):
        assert all(len(t) == 100 for t in man.tiers[tier])

    assert ablate(man, drop_expert=0.5).counts() == {"expert": 250,
                                                     "medium": 500}
    assert ablate(man, drop_medium=0.5).counts() == {"expert": 500,
                                                     "medium": 250}
    assert ablate(man, drop_expert=0.5, drop_medium=0.5).counts() == {
        "expert": 250, "medium": 250}
    assert collect_time + time.monotonic() - t0 < 300.0


def test_faded_mean_reward_bounded_by_deterministic():
    t0 = time.monotonic()
    params = cs.default_config().utility
    models = [parse_fading(s) for s in ("rayleigh", "rician:3", "rician:10")]
    rng = np.random.default_rng(11)
    for model in models:
        held = 0
        for _ in range(50):
            snr = rng.random((3, 5))
            tau = rng.random(3)
            rep = mac.verify_jensen(snr, tau, model, params,
                                    n_samples=100_000, fixed_allocation=True,
                                    rng=np.random.default_rng(rng.integers(2 ** 32)))
            held += rep.holds
        assert held == 50, f"{model.label()}: bound held in {held}/50 instances"
    assert time.monotonic() - t0 < 120.0


def test_utility_chain_concavity_probe():
    t0 = time.monotonic()
    params = cs.default_config().utility
    rng = np.random.default_rng(5)
    report = mac.concavity_probe(params, rng.random(3), n_trials=10_000,
                                 rng=rng, n_ues=5)
    assert report.n_trials == 10_000
    assert report.violations == 0
    assert report.passed
    assert time.monotonic() - t0 < 30.0


def test_fading_gain_moments_and_law():
    t0 = time.monotonic()
    n = 1_000_000
    for spec in ("rayleigh", "rician:3", "rician:10"):
        model = parse_fading(spec)
        h = radio.sample_fading(model, np.random.default_rng(0), size=n)
        mean_sq = float((h ** 2).mean())
        assert abs(mean_sq - model.omega) <= 0.01 * model.omega, \
            f"{spec}: E[H^2]={mean_sq}"

    h = radio.sample_fading(parse_fading("rayleigh"), np.random.default_rng(0),
                            size=n)
    res = sstats.kstest(h, lambda x: 1.0 - np.exp(-x ** 2))
    assert res.pvalue > 0.01, f"KS p={res.pvalue}"
    assert time.monotonic() - t0 < 30.0


def test_expert_return_ordering_across_fading():
    # Shared seeds across models isolate the channel effect; means must be
    # monotone in channel stochasticity up to 2 paired SEMs.
    t0 = time.monotonic()
    models = [parse_fading(s) for s in ("none", "rician:10", "rician:3",
                                        "rayleigh")]
    rep = fading_sweep(cs.default_config(), make_policy("expert"), models,
                       n_episodes=100, seed_base=0, workers=4)
    for less, more, gap, sem, ok in rep.pair_checks:
        assert ok, f"{less} vs {more}: gap={gap} sem={sem}"
    assert rep.ordering_ok
    assert time.monotonic() - t0 < 600.0


def test_mobility_variants_contrast(full_dataset, limited_dataset):
    t0 = time.monotonic()

    def per_ue_variance(cfg, seed, n_steps=10_000):
        mob = cfg.mobility
        rngs = [np.random.default_rng(c)
                for c in np.random.SeedSequence(seed).spawn(cfg.n_ues)]
        start, route = mobility.init_positions(mob, [rngs], n_steps)
        track = mobility.step_motion(start, route, mob)[1:, 0]
        return track.var(axis=0).sum(axis=-1)

    var_full = per_ue_variance(cs.default_config(), seed=0)
    var_limited = per_ue_variance(cs.default_config(mobility_variant="limited"),
                                  seed=0)
    assert (var_limited < var_full).all(), \
        f"limited {var_limited} vs full {var_full}"

    man_full, _ = full_dataset
    man_limited, t_limited = limited_dataset
    overlap_full = histogram_overlap(return_stats(man_full, bins=30),
                                     "expert", "medium")
    overlap_limited = histogram_overlap(return_stats(man_limited, bins=30),
                                        "expert", "medium")
    assert overlap_full > overlap_limited, \
        f"overlap full={overlap_full} limited={overlap_limited}"
    assert t_limited + time.monotonic() - t0 < 300.0


def test_cross_process_and_worker_determinism(tmp_path):
    # The children run in tmp_path, where a relative PYTHONPATH entry such
    # as "src" points nowhere; put the directory holding the cellsim this
    # process imported first, so every child runs the code under test.
    pkg_root = str(Path(cs.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(
        filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}

    def cli(*argv):
        cmd = [sys.executable, "-m", "cellsim", *argv]
        proc = subprocess.run(cmd, capture_output=True, timeout=300,
                              cwd=tmp_path, env=env)
        assert proc.returncode == 0, (
            f"{cmd} exited {proc.returncode} with PYTHONPATH={pythonpath}:\n"
            f"{proc.stderr.decode()}")
        return proc.stdout

    sim = ("simulate", "--steps", "10", "--policy", "medium", "--seed", "9",
           "--fading", "rician:3")
    assert cli(*sim) == cli(*sim)

    coll = ("collect", "--tier", "medium-expert", "--n", "6",
            "--horizon", "10", "--fading", "rayleigh", "--seed-base", "3")
    cli(*coll, "--out", str(tmp_path / "a.jsonl"))
    cli(*coll, "--out", str(tmp_path / "b.jsonl"))
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    cli(*coll, "--workers", "1", "--out", str(tmp_path / "w1.jsonl"))
    cli(*coll, "--workers", "2", "--out", str(tmp_path / "w2.jsonl"))
    assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()


def test_reward_matches_independent_reference():
    params = cs.default_config().utility
    rng = np.random.default_rng(2024)
    for k in range(100):
        snr = rng.random((2, 2))
        tau = rng.random(2)
        if k % 10 == 0:
            tau[0] = snr[0, 0]  # exact threshold boundary
        if k % 17 == 0:
            snr[:, 1] = 0.0  # fully disconnected user
        got_rew, got_utils = mac.reward_terms(snr, tau, params)
        want_rew, want_utils = reference_reward(snr.tolist(), tau.tolist(),
                                                bandwidth=params.bandwidth,
                                                aggregate=params.aggregate)
        assert abs(float(got_rew) - want_rew) <= 1e-12, f"instance {k}"
        for j in range(2):
            assert abs(float(got_utils[j]) - want_utils[j]) <= 1e-12


def test_fair_shares_and_reward_extremes():
    params = cs.default_config().utility
    rng = np.random.default_rng(3)

    snr = rng.random((10_000, 3, 5))
    tau = rng.random((10_000, 3))
    # The kernels take the kernel layout (stations, users, batch): transposed
    # views in, and the results transposed back.
    snr_k = snr.transpose(1, 2, 0)
    conn = mac._connections(snr_k, tau.T[:, None])
    rates = mac.data_rate(snr_k, params.bandwidth)
    alloc = mac._fractions(np.where(conn, rates, 1.0), conn)
    conn, rates, alloc = (x.transpose(2, 0, 1) for x in (conn, rates, alloc))
    delivered = np.where(conn, alloc * rates, 0.0)
    hi = np.where(conn, delivered, -np.inf).max(axis=-1)
    lo = np.where(conn, delivered, np.inf).min(axis=-1)
    spread = np.where(conn.any(axis=-1), hi - lo, 0.0)
    assert spread.max() <= 1e-12, f"max within-station spread {spread.max()}"

    # Thresholds above the SNR ceiling leave everyone disconnected: the
    # reward sits exactly on the zero-rate utility floor.
    rew, utils = mac.reward_terms(rng.random((3, 5)),
                                  np.full(3, 1.0 + 1e-9), params)
    assert float(rew) == 0.5
    assert np.all(utils == 0.5)

    # A shared threshold swept over its grid should usually peak strictly
    # inside: connecting everyone and connecting no one both waste rate.
    grid = np.linspace(0.0, 1.0, 11)
    rng = np.random.default_rng(7)
    interior = 0
    n_instances = 1000
    for _ in range(n_instances):
        snr = rng.random((3, 5))
        rews = np.array([float(mac.reward_terms(snr, np.full(3, t), params)[0])
                         for t in grid])
        k = int(np.argmax(rews))
        if 0 < k < len(grid) - 1 and rews[k] > rews[0] and rews[k] > rews[-1]:
            interior += 1
    assert interior / n_instances >= 0.95, \
        f"interior maximizer on {interior}/{n_instances} instances"
