"""Evaluation harness: scoring, rescaling, and fading sweeps."""

import numpy as np
import pytest

import cellsim as cs
from cellsim.config import parse_fading
from cellsim.data import collect_trajectory
from cellsim.harness import EvalResult, _block_returns, evaluate, fading_sweep, rescale
from cellsim.policies import make_policy
from conftest import peak_traced_bytes


class TestEvaluate:
    def test_single_episode(self, short_cfg):
        res = evaluate(short_cfg, make_policy("random"), n_episodes=1, seed_base=4)
        assert res.n_episodes == 1
        assert res.std == 0.0
        assert res.mean == res.returns[0]

    def test_returns_match_individual_rollouts(self, short_cfg):
        policy = make_policy("random")
        res = evaluate(short_cfg, policy, n_episodes=3, seed_base=20)
        for k, ret in enumerate(res.returns):
            traj = collect_trajectory(short_cfg, policy, 20 + k)
            assert ret == traj.total_return, f"seed {20 + k} disagrees"

    def test_frozen_scenario_has_zero_spread(self, frozen_cfg):
        # Still users, no fading, deterministic policy: every seed is the
        # same episode.  The std only sees the mean accumulator's rounding.
        res = evaluate(frozen_cfg, make_policy("expert"), n_episodes=3)
        assert len(set(res.returns)) == 1
        assert res.std <= 1e-12

    def test_default_episode_count(self, short_cfg):
        res = evaluate(short_cfg, make_policy("random"))
        assert res.n_episodes == 30
        assert len(res.returns) == 30

    def test_episode_count_validation(self, short_cfg):
        with pytest.raises(ValueError):
            evaluate(short_cfg, make_policy("random"), n_episodes=0)

    def test_worker_count_does_not_change_result(self, short_cfg):
        policy = make_policy("random")
        serial = evaluate(short_cfg, policy, n_episodes=4, seed_base=1)
        pooled = evaluate(short_cfg, policy, n_episodes=4, seed_base=1, workers=2)
        assert serial.returns == pooled.returns
        assert serial.mean == pooled.mean

    @pytest.mark.parametrize("workers", [0, -4])
    def test_workers_below_one_rejected(self, short_cfg, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            evaluate(short_cfg, make_policy("random"), n_episodes=2, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            fading_sweep(short_cfg, make_policy("random"), [parse_fading("none")],
                         n_episodes=2, workers=workers)

    def test_text_summary(self, short_cfg):
        res = evaluate(short_cfg, make_policy("random"), n_episodes=2)
        text = res.to_text()
        assert "policy=random" in text
        assert f"mean={res.mean!r}" in text
        assert f"std={res.std!r}" in text


class TestPolicyEpsilon:
    """A policy's epsilon set after it was built is checked before any
    episode runs, as ``collect`` checks it."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("eps", [1.5, True, "0.2"], ids=["1.5", "True", "str"])
    @pytest.mark.parametrize("run", [
        lambda cfg, policy, workers: evaluate(cfg, policy, n_episodes=2, workers=workers),
        lambda cfg, policy, workers: fading_sweep(cfg, policy, [parse_fading("rayleigh")],
                                                  n_episodes=2, workers=workers),
    ], ids=["evaluate", "fading_sweep"])
    def test_bad_epsilon_fails_before_any_episode(self, short_cfg, run, eps, workers,
                                                  monkeypatch):
        blocks = []
        monkeypatch.setattr(cs.harness, "map_seeds", lambda *args: blocks.append(args))
        policy = make_policy("medium")
        policy.epsilon = eps
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, 1\]$"):
            run(short_cfg, policy, workers)
        assert blocks == []


class TestBlockMemory:
    # One block of 40 faded random episodes, what the calling process and its
    # one forked worker each run in a 2-worker 80-episode evaluate.  Its peak
    # (numpy 2.4) was 4562 KiB while reset and scoring chained full-size
    # temporaries, 3323 KiB with motion walked into one array and the SNR and
    # reward built in place, 2226 KiB with the rows scored 16 at a time, and
    # is 1921 KiB with each station's distances built in its own rows of the
    # SNR array and |H|^2 drawn after the SNR pass; the bound leaves about a
    # tenth for allocator and version drift.
    def test_faded_block_peak_bounded(self):
        cfg = cs.default_config(mobility_variant="limited", fading="rayleigh")
        _block_returns(cfg, make_policy("random"), range(2))  # imports done before tracing
        peak_kib = peak_traced_bytes(_block_returns, cfg, make_policy("random"),
                                     range(40)) / 1024
        assert peak_kib < 2120, f"peak {peak_kib:.0f} KiB"

    # The largest block ``map_seeds`` builds (``data.CAP``).  Its peak was
    # 6834 KiB while the SNR pass held a second full-size array of
    # y-differences, and is 6130 KiB, set by scoring; the same tenth on top.
    def test_faded_block_of_128_peak_bounded(self):
        cfg = cs.default_config(mobility_variant="limited", fading="rayleigh")
        _block_returns(cfg, make_policy("random"), range(2))  # imports done before tracing
        peak_kib = peak_traced_bytes(_block_returns, cfg, make_policy("random"),
                                     range(128)) / 1024
        assert peak_kib < 6750, f"peak {peak_kib:.0f} KiB"


class TestRescale:
    def test_midpoint_and_endpoints(self):
        assert rescale(70.0, 80.0, 60.0) == 50.0
        assert rescale(80.0, 80.0, 60.0) == 100.0
        assert rescale(60.0, 80.0, 60.0) == 0.0
        assert type(rescale(70.0, np.float64(80.0), np.float64(60.0))) is float

    def test_unclipped_outside_baselines(self):
        assert rescale(90.0, 80.0, 60.0) == 150.0
        assert rescale(50.0, 80.0, 60.0) == -50.0

    def test_affine_invariance(self):
        raw = rescale(70.0, 80.0, 60.0)
        shifted = rescale(2 * 70.0 + 1, 2 * 80.0 + 1, 2 * 60.0 + 1)
        assert shifted == pytest.approx(raw)

    def test_degenerate_baselines(self, short_cfg, monkeypatch):
        blocks = []
        monkeypatch.setattr(cs.harness, "map_seeds", lambda *args: blocks.append(args))
        for pair in ((60.0, 60.0), (np.nan, 0.0), (0.0, np.inf)):
            with pytest.raises(ValueError):
                rescale(70.0, *pair)
            with pytest.raises(ValueError):
                fading_sweep(short_cfg, make_policy("random"), [parse_fading("none")],
                             n_episodes=2, baselines=pair)
        assert blocks == []


class TestFadingSweep:
    def test_duplicate_models_tie_exactly(self, short_cfg):
        # Same model twice shares the seed block, so the gap is exactly zero.
        models = [parse_fading("none"), parse_fading("none")]
        rep = fading_sweep(short_cfg, make_policy("random"), models, n_episodes=5)
        assert rep.rows[0].mean == rep.rows[1].mean
        (_, _, gap, sem, ok) = rep.pair_checks[0]
        assert gap == 0.0
        assert sem == 0.0
        assert ok is True
        assert rep.ordering_ok is True

    def test_deterministic_channel_beats_rayleigh(self, short_cfg):
        models = [parse_fading("none"), parse_fading("rayleigh")]
        rep = fading_sweep(short_cfg, make_policy("random"), models,
                           n_episodes=60, seed_base=0)
        less, more, gap, sem, ok = rep.pair_checks[0]
        assert (less, more) == ("none", "rayleigh")
        assert ok is True
        assert gap >= 2.0 * sem, f"gap {gap} within noise band {2 * sem}"
        assert rep.ordering_ok is True

    def test_models_ranked_by_stochasticity(self, short_cfg):
        # Input order should not matter: pairs go none, rician K desc, rayleigh.
        models = [parse_fading(s) for s in ("rayleigh", "none", "rician:3")]
        rep = fading_sweep(short_cfg, make_policy("random"), models, n_episodes=3)
        pairs = [(a, b) for a, b, *_ in rep.pair_checks]
        assert pairs == [("none", "rician:3"), ("rician:3", "rayleigh")]

    def test_baselines_add_scores(self, short_cfg):
        models = [parse_fading("none")]
        rep = fading_sweep(short_cfg, make_policy("random"), models,
                           n_episodes=3, baselines=(8.0, 4.0))
        row = rep.rows[0]
        assert row.score == pytest.approx(100.0 * (row.mean - 4.0) / 4.0)

    def test_csv_layout(self, short_cfg):
        models = [parse_fading("none"), parse_fading("rician:3")]
        rep = fading_sweep(short_cfg, make_policy("random"), models, n_episodes=2)
        lines = rep.to_csv().split("\n")
        assert lines[0] == "policy_id,fading,mobility_variant,n_episodes,mean,std,score"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "random"
        assert fields[1] == "none"
        assert fields[2] == "full"
        assert fields[3] == "2"
        assert fields[6] == ""  # no baselines, empty score column
        assert float(fields[4]) == rep.rows[0].mean

    def test_models_share_one_process_pool(self, short_cfg, forks):
        models = [parse_fading(m) for m in ("none", "rician:3", "rayleigh")]
        pooled = fading_sweep(short_cfg, make_policy("random"), models, n_episodes=4,
                              seed_base=7, workers=2)
        assert len(forks) == 1
        serial = fading_sweep(short_cfg, make_policy("random"), models, n_episodes=4,
                              seed_base=7)
        assert len(forks) == 1, "workers=1 forks nothing"
        assert pooled == serial

    def test_episode_count_validation(self, short_cfg):
        with pytest.raises(ValueError, match="n_episodes must be positive"):
            fading_sweep(short_cfg, make_policy("random"), [parse_fading("none")],
                         n_episodes=0)

    def test_empty_model_list_rejected(self, short_cfg):
        with pytest.raises(ValueError, match="models must name at least one fading model"):
            fading_sweep(short_cfg, make_policy("random"), [])

    def test_row_metadata(self, frozen_cfg):
        rep = fading_sweep(frozen_cfg, make_policy("expert"),
                           [parse_fading("none")], n_episodes=2)
        row = rep.rows[0]
        assert row.mobility_variant == "limited"
        assert row.policy_id == "expert"
        assert row.n_episodes == 2
        assert row.std <= 1e-12
