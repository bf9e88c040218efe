"""Connection, allocation, utility, and reward-bound checks.

Hand-computed anchors: log2(1+1) = 1 so data_rate(1, b) = b exactly; a
delivered rate of 9 maps to utility 0.75 under the default shape because
10*log10(10) = 10 sits three quarters of the way through [-20, 20].
"""

import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsim.config import FadingModel, UtilityParams, parse_fading
from cellsim import mac, radio
from cellsim.data import map_seeds
from cellsim.env import decode_action

from conftest import peak_traced_bytes, set_usable_cpus
from reference_impl import reference_reward, reference_verify_jensen


class TestDataRate:
    def test_unit_snr_gives_bandwidth(self):
        assert mac.data_rate(1.0, 600.0) == pytest.approx(600.0, rel=1e-12)

    def test_snr_three_doubles_bandwidth(self):
        assert mac.data_rate(3.0, 10.0) == pytest.approx(20.0, rel=1e-12)

    def test_zero_snr_zero_rate(self):
        assert mac.data_rate(0.0, 600.0) == 0.0


class TestConnections:
    def test_threshold_comparison(self):
        snr = np.array([[0.5, 0.2], [0.7, 0.7]])
        conn = mac.connections(snr, np.array([0.5, 0.8]))
        assert conn.tolist() == [[True, False], [False, False]]

    def test_zero_snr_never_connects(self):
        # A zero threshold admits every positive SNR but a dead link stays
        # dead.
        conn = mac.connections(np.zeros((3, 5)), np.zeros(3))
        assert not conn.any()

    def test_zero_rate_link_never_connects(self):
        # At or below 2**-53, 1 + gamma rounds to 1: such a link has rate 0
        # and would make the harmonic share divide by zero.
        tiny = 2.0 ** -53
        snr = np.array([[tiny, np.nextafter(tiny, 1.0), 5e-324, 0.5]])
        conn = mac.connections(snr, np.zeros(1))
        assert conn.tolist() == [[False, True, False, True]]
        assert mac.data_rate(snr, 600.0)[0, 1] > 0.0
        rew, utils = mac.reward_terms(snr, np.zeros(1), UtilityParams())
        assert np.isfinite(utils).all() and 0.0 <= rew <= 1.0

    def test_threshold_batch_broadcasts(self):
        snr = np.array([[0.5, 0.2]])
        taus = np.array([[0.0], [0.3], [0.6]])
        conn = mac.connections(snr, taus)
        assert conn.shape == (3, 1, 2)
        assert conn[:, 0].tolist() == [[True, True], [True, False], [False, False]]


class TestRateFair:
    def test_equal_rates_split_in_half(self):
        snr = np.array([[1.0, 1.0]])
        conn = mac.connections(snr, np.zeros(1))
        alloc = mac.ratefair_fractions(mac.data_rate(snr, 600.0), conn)
        assert np.allclose(alloc, 0.5, atol=1e-12)

    def test_unequal_rates_equalize_delivery(self):
        # Rates 3 and 6 share a station; the harmonic split delivers 2 to
        # each (fractions 2/3 and 1/3).
        snr = np.array([[1.0, 3.0]])
        conn = np.array([[True, True]])
        rates = mac.data_rate(snr, 3.0)
        alloc = mac.ratefair_fractions(rates, conn)
        delivered = alloc * rates
        assert np.allclose(delivered, 2.0, atol=1e-12)
        assert np.allclose(alloc, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_solo_user_gets_everything(self):
        snr = np.array([[0.7, 0.2]])
        conn = np.array([[True, False]])
        alloc = mac.ratefair_fractions(mac.data_rate(snr, 10.0), conn)
        assert alloc[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert alloc[0, 1] == 0.0

    def test_empty_station_all_zero(self):
        snr = np.array([[0.7, 0.2]])
        conn = np.zeros((1, 2), dtype=bool)
        alloc = mac.ratefair_fractions(mac.data_rate(snr, 10.0), conn)
        assert np.all(alloc == 0.0)

    def test_fractions_sum_to_one_when_loaded(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            snr = rng.random((3, 5))
            conn = mac.connections(snr, rng.random(3) * 0.5)
            alloc = mac.ratefair_fractions(mac.data_rate(snr, 600.0), conn)
            loaded = conn.any(axis=1)
            sums = alloc.sum(axis=1)
            assert np.allclose(sums[loaded], 1.0, atol=1e-9)
            assert np.all(sums[~loaded] == 0.0)

    def test_delivered_rates_equal_within_station(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            snr = rng.random((3, 5))
            conn = mac.connections(snr, rng.random(3) * 0.5)
            rates = mac.data_rate(snr, 600.0)
            delivered = mac.ratefair_fractions(rates, conn) * rates
            for i in range(3):
                row = delivered[i][conn[i]]
                if row.size > 1:
                    assert row.max() - row.min() <= 1e-12 * max(1.0, row.max())


class TestArgumentsUntouched:
    def test_kernels_leave_their_arguments(self):
        # The kernels compute in place, but only in arrays of their own.
        rng = np.random.default_rng(9)
        snr, tau, faded = rng.random((2, 3, 5)), rng.random((2, 3)), rng.random((2, 3, 5))
        conn = mac.connections(snr, tau)
        rates = mac.data_rate(snr, 10.0)
        before = [a.copy() for a in (snr, tau, faded, conn, rates)]
        mac.data_rate(snr, 10.0)
        mac.ratefair_fractions(rates, conn)
        mac.utility(rates, UtilityParams())
        mac.reward_terms(snr, tau, UtilityParams(), reward_snr=faded)
        mac.reward(snr, tau, UtilityParams(), reward_snr=faded)
        assert all(np.array_equal(a, b) for a, b in zip(before, (snr, tau, faded, conn, rates)))


class TestUserSum:
    """The kernels sum over users along an outer axis; ``_user_sum`` keeps
    the order numpy's ``sum(axis=-1)`` uses on a contiguous axis: in order
    below 8 entries, pairwise from 8, split in halves above 128."""

    @pytest.mark.parametrize("n", [*range(1, 21), 127, 128, 129, 300])
    def test_equals_numpy_sum_and_mean_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        x = rng.random((64, n)) ** 4 * 10.0 ** rng.integers(-8, 9, size=(64, n))
        x[rng.random((64, n)) < 0.1] = 0.0
        got = mac._user_sum(np.ascontiguousarray(x.T))
        assert np.array_equal(got, x.sum(axis=-1))
        assert np.array_equal(got / n, x.mean(axis=-1))
        one = mac._user_sum(x[0])
        assert one == x[0].sum() and one / n == x[0].mean()


class TestUtility:
    def test_rate_nine_is_three_quarters(self):
        assert mac.utility(9.0, UtilityParams()) == pytest.approx(0.75, abs=1e-12)

    def test_zero_rate_floor_is_half(self):
        assert mac.utility(0.0, UtilityParams()) == pytest.approx(0.5, abs=1e-12)

    def test_huge_rate_clips_to_one(self):
        assert mac.utility(1e12, UtilityParams()) == 1.0

    def test_small_w2_reaches_zero(self):
        params = UtilityParams(w2=0.01)
        assert mac.utility(0.0, params) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_rate(self):
        params = UtilityParams()
        rates = np.linspace(0.0, 120.0, 200)
        u = mac.utility(rates, params)
        assert np.all(np.diff(u) >= 0.0)


class TestRewardTerms:
    def test_no_connections_gives_floor(self):
        snr = np.zeros((3, 5))
        rew, utils = mac.reward_terms(snr, np.full(3, 0.5), UtilityParams())
        assert rew == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(utils, 0.5, atol=1e-12)

    def test_dead_network_small_w2_rewards_zero(self):
        params = UtilityParams(w2=0.01)
        rew, _ = mac.reward_terms(np.zeros((3, 5)), np.zeros(3), params)
        assert rew == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(4)
        params = UtilityParams()
        for _ in range(50):
            snr = rng.random((3, 5))
            tau = rng.random(3)
            rew, utils = mac.reward_terms(snr, tau, params)
            want_rew, want_utils = reference_reward(snr.tolist(), tau.tolist(),
                                                    params.bandwidth)
            assert rew == pytest.approx(want_rew, abs=1e-12)
            assert np.allclose(utils, want_utils, atol=1e-12)

    def test_matches_reference_with_faded_rates(self):
        rng = np.random.default_rng(5)
        params = UtilityParams(aggregate="sum")
        for _ in range(50):
            snr = rng.random((3, 5))
            tau = rng.random(3) * 0.6
            faded = snr * rng.exponential(size=(3, 5))
            rew, _ = mac.reward_terms(snr, tau, params, reward_snr=faded)
            want_rew, _ = reference_reward(snr.tolist(), tau.tolist(),
                                           params.bandwidth, aggregate="sum",
                                           snr_reward=faded.tolist())
            assert rew == pytest.approx(want_rew, abs=1e-12)

    def test_reward_without_fading_is_deterministic(self):
        snr = np.random.default_rng(6).random((4, 3, 5))
        tau = np.full((4, 3), 0.3)
        got = mac.reward(snr, tau, UtilityParams())
        want = mac.reward_terms(snr, tau, UtilityParams())
        assert got[0].shape == (4,) and got[1].shape == (4, 5)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_faded_reward_scales_rate_snr_by_power(self):
        rng = np.random.default_rng(8)
        snr, tau = rng.random((3, 3, 5)), rng.random((3, 3)) * 0.6
        fading, params = FadingModel("rayleigh"), UtilityParams()
        # Episode b's first block from stream b: what a reset draws as row 0.
        power = np.array([radio.episode_fading_power(fading, np.random.default_rng(b), 1,
                                                     (3, 5))[0] for b in range(3)])
        rews, utils = mac.reward(snr, tau, params, snr * power)
        want = mac.reward_terms(snr, tau, params, reward_snr=snr * power)
        assert np.array_equal(rews, want[0]) and np.array_equal(utils, want[1])
        for b in range(3):
            faded = snr[b] * radio.sample_fading(fading, np.random.default_rng(b), (3, 5)) ** 2
            one = mac.reward_terms(snr[b], tau[b], params, reward_snr=faded)
            assert rews[b] == one[0] and np.array_equal(utils[b], one[1])


@st.composite
def reward_cases(draw):
    """An SNR matrix with some all-zero station rows, a batch of threshold
    vectors with exact ties at ``gamma == tau``, and maybe a faded matrix."""
    n_bs, n_ues = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    # 2**-53 and 5e-324 have rate 0 although they are positive.
    entry = st.sampled_from([0.0, 2.0 ** -53, 5e-324, 0.1, 0.5, 1.0]) | st.floats(0.0, 1.0)
    snr = np.array(draw(st.lists(st.lists(entry, min_size=n_ues, max_size=n_ues),
                                 min_size=n_bs, max_size=n_bs)))
    snr[draw(st.lists(st.booleans(), min_size=n_bs, max_size=n_bs))] = 0.0
    # A threshold either copies one of its station's SNRs (a tie) or is free.
    tie = st.integers(0, n_ues - 1) | st.floats(0.0, 1.0)
    picks = draw(st.lists(st.lists(tie, min_size=n_bs, max_size=n_bs),
                          min_size=1, max_size=4))
    taus = np.array([[snr[i, p] if isinstance(p, int) else p for i, p in enumerate(row)]
                     for row in picks])
    faded = None
    if draw(st.booleans()):
        gains = draw(st.lists(st.floats(0.0, 10.0), min_size=n_bs * n_ues,
                              max_size=n_bs * n_ues))
        faded = snr * np.reshape(gains, snr.shape)
    return snr, taus, faded, draw(st.sampled_from(["mean", "sum"]))


@st.composite
def engine_cases(draw):
    """A (rows, B) batch of state SNR matrices in [0, 1] with rate-0 pairs,
    one station that connects nobody (its SNRs are 0, or its threshold lies
    above them), thresholds in [0, 1] with ties, and |H|^2 blocks or None."""
    rows, b, n_bs, n_ues = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                            draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    shape = (rows, b, n_bs, n_ues)
    size = int(np.prod(shape))
    entry = st.sampled_from([0.0, 2.0 ** -53, 5e-324, 0.5, 1.0]) | st.floats(0.0, 1.0)
    snr = np.reshape(draw(st.lists(entry, min_size=size, max_size=size)), shape)
    tie = st.sampled_from([0.0, 1.0, "tie"]) | st.floats(0.0, 1.0)
    tau = np.array([[[snr[r, e, i, 0] if (p := draw(tie)) == "tie" else p
                      for i in range(n_bs)] for e in range(b)] for r in range(rows)])
    dead = draw(st.integers(0, n_bs - 1))
    if draw(st.booleans()):
        snr[..., dead, :] = 0.0
    else:
        snr[..., dead, :] = np.minimum(snr[..., dead, :], 0.5)
        tau[..., dead] = 0.75
    power = None
    if draw(st.booleans()):
        gain = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0)
        power = np.reshape(draw(st.lists(gain, min_size=size, max_size=size)), shape)
    return snr, tau, power, draw(st.sampled_from(["mean", "sum"]))


def _concavity_reference(params, tau, n_trials, seed, n_ues):
    """``concavity_probe``'s (n_checks, violations, max_violation) from the
    scalar reference reward, on the same draws in the same order."""
    rng = np.random.default_rng(seed)
    shape = (n_trials, len(tau), n_ues)
    base = 1.0 - rng.random(shape)
    x = rng.random(shape) * mac._PROBE_GAMMA_HIGH
    y = rng.random(shape) * mac._PROBE_GAMMA_HIGH
    lam = rng.random((n_trials, 1))
    mix = lam[..., None] * x + (1.0 - lam[..., None]) * y
    gaps = []
    for t in range(n_trials):
        g_mix, g_x, g_y = (np.array(reference_reward(
            base[t].tolist(), list(tau), params.bandwidth, aggregate=params.aggregate,
            snr_reward=z[t].tolist())[1]) for z in (mix, x, y))
        gaps.append(lam[t] * g_x + (1.0 - lam[t]) * g_y - g_mix)
    gap = np.array(gaps)
    return gap.size, int((gap > mac._PROBE_TOL).sum()), float(gap.max())


class TestRewardTermsMatchesReference:
    """The vectorized reward against the scalar loops in ``reference_impl``,
    one threshold row of the batch at a time."""

    @settings(max_examples=150, deadline=None)
    @given(case=reward_cases())
    def test_batched_rows_match_scalar_reference(self, case):
        snr, taus, faded, aggregate = case
        params = UtilityParams(aggregate=aggregate)
        rews, utils = mac.reward_terms(snr, taus, params, reward_snr=faded)
        assert rews.shape == (len(taus),)
        assert utils.shape == (len(taus), snr.shape[1])
        for b, tau in enumerate(taus):
            want_rew, want_utils = reference_reward(
                snr.tolist(), tau.tolist(), params.bandwidth, aggregate=aggregate,
                snr_reward=None if faded is None else faded.tolist())
            assert rews[b] == pytest.approx(want_rew, abs=1e-12)
            assert utils[b].tolist() == pytest.approx(want_utils, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=engine_cases())
    def test_engine_reward_matches_scalar_reference(self, case):
        """The block reward ``mac.reward`` (the engine's one call per block),
        pair by pair against the scalar loop and bit for bit against
        ``reward_terms`` on the faded matrix; its inputs stay as they were."""
        snr, tau, power, aggregate = case
        params = UtilityParams(aggregate=aggregate)
        faded = None if power is None else snr * power
        inputs = [a.copy() for a in (snr, tau, faded) if a is not None]
        rews, utils = mac.reward(snr, tau, params, faded)
        assert all(np.array_equal(a, b) for a, b in
                   zip(inputs, [a for a in (snr, tau, faded) if a is not None]))
        want = mac.reward_terms(snr, tau, params, reward_snr=faded)
        assert np.array_equal(rews, want[0]) and np.array_equal(utils, want[1])
        for idx in np.ndindex(rews.shape):
            want_rew, want_utils = reference_reward(
                snr[idx].tolist(), tau[idx].tolist(), params.bandwidth, aggregate=aggregate,
                snr_reward=None if faded is None else faded[idx].tolist())
            assert rews[idx] == pytest.approx(want_rew, abs=1e-12)
            assert utils[idx].tolist() == pytest.approx(want_utils, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(tau=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                        min_size=1, max_size=3),
           n_trials=st.integers(1, 6), n_ues=st.integers(1, 4),
           aggregate=st.sampled_from(["mean", "sum"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_concavity_probe_matches_scalar_reference(self, tau, n_trials, n_ues,
                                                      aggregate, seed):
        """A threshold of 1 leaves its station with no connection."""
        params = UtilityParams(aggregate=aggregate)
        rep = mac.concavity_probe(params, tau, n_trials=n_trials, rng=seed, n_ues=n_ues)
        n_checks, violations, worst = _concavity_reference(params, tau, n_trials, seed, n_ues)
        assert (rep.n_checks, rep.violations) == (n_checks, violations)
        assert rep.max_violation == pytest.approx(worst, abs=1e-12)


@st.composite
def action_cases(draw, lead, n_bs):
    """An SNR matrix with leading axes ``lead`` and each station's three
    thresholds: a base on the 0.1 grid moved by -0.1, 0 and +0.1 and clipped
    onto [0, 1], so at 0 and 1 two of them are equal.  An SNR entry copies
    one of its station's thresholds (an exact tie), is free, or has rate 0."""
    n_ues = draw(st.integers(1, 12))
    size = int(np.prod(lead, dtype=int)) * n_bs
    base = np.reshape(draw(st.lists(st.integers(0, 10), min_size=size, max_size=size)),
                      lead + (1, n_bs)) / 10.0
    taus = np.clip(base + np.array([[-0.1], [0.0], [0.1]]), 0.0, 1.0)  # (..., 3, n_bs)
    entry = st.integers(0, 2) | st.floats(0.0, 1.0) | st.sampled_from([0.0, 2.0 ** -53])
    snr = np.empty(lead + (n_bs, n_ues))
    for idx in np.ndindex(snr.shape):
        pick = draw(entry)
        snr[idx] = taus[idx[:-2] + (pick, idx[-2])] if isinstance(pick, int) else pick
    return snr, taus


class TestActionRewards:
    """Every action code's reward and utilities equal ``reward_terms`` on
    that code's thresholds, bit for bit."""

    @pytest.mark.parametrize("aggregate", ["mean", "sum"])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["matrix", "batch"])
    @pytest.mark.parametrize("n_bs", [1, 2, 3, 4])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_code_equals_reward_terms(self, n_bs, lead, aggregate, data):
        snr, taus = data.draw(action_cases(lead, n_bs))
        params = UtilityParams(aggregate=aggregate)
        rews, utils = mac.action_rewards(snr, taus, params)
        n_actions, n_ues = 3 ** n_bs, snr.shape[-1]
        assert rews.shape == lead + (n_actions,)
        assert utils.shape == lead + (n_actions, n_ues)
        for idx in np.ndindex(lead):
            for code in range(n_actions):
                rows = np.array(decode_action(code, n_bs)) + 1
                want = mac.reward_terms(snr[idx], taus[idx][rows, np.arange(n_bs)], params)
                assert rews[idx + (code,)] == want[0]
                assert np.array_equal(utils[idx + (code,)], want[1])


class TestJensenBound:
    def _instance(self, seed=7):
        rng = np.random.default_rng(seed)
        return rng.random((3, 5)), rng.random(3) * 0.6

    def test_sample_floor_enforced(self):
        snr, tau = self._instance()
        with pytest.raises(ValueError):
            mac.verify_jensen(snr, tau, FadingModel("rayleigh"), UtilityParams(),
                              n_samples=100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_bad_snr_rejected(self, bad):
        # The one public entry that takes an SNR matrix from its caller.
        snr, tau = self._instance()
        snr[1, 2] = bad
        with pytest.raises(ValueError, match="SNR must be finite and non-negative"):
            mac.verify_jensen(snr, tau, FadingModel("rayleigh"), UtilityParams(),
                              n_samples=10_000, rng=0)

    @pytest.mark.parametrize("tau, match", [
        ([np.nan, 0.1, 0.2], "finite and lie in"),
        ([0.1, np.inf, 0.2], "finite and lie in"),
        ([5.0, -3.0, 0.1], "finite and lie in"),
        ([0.1, 0.2, 1.5], "finite and lie in"),
        ([0.1, -0.1, 0.2], "finite and lie in"),
        ([[0.1, 0.2, 0.3]], "non-empty 1-D"),
        (0.3, "non-empty 1-D"),
        ([], "non-empty 1-D"),
        ([0.1, 0.2], "2 thresholds but the SNR matrix has 3 stations"),
        ([0.1, 0.2, 0.3, 0.4], "4 thresholds but the SNR matrix has 3 stations"),
    ], ids=["nan", "inf", "out-of-range", "above-1", "negative", "2-D", "scalar",
            "empty", "too-short", "too-long"])
    def test_bad_tau_rejected(self, tau, match):
        snr, _ = self._instance()
        with pytest.raises(ValueError, match=match):
            mac.verify_jensen(snr, tau, FadingModel("rayleigh"), UtilityParams(),
                              n_samples=10_000, rng=0)

    @pytest.mark.parametrize("shape", [(15,), (1, 3, 5)], ids=["1-D", "3-D"])
    def test_snr_must_be_a_matrix(self, shape):
        snr = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=r"SNR must be an \(n_bs, n_ues\) matrix"):
            mac.verify_jensen(snr, np.full(3, 0.2), FadingModel("rayleigh"),
                              UtilityParams(), n_samples=10_000, rng=0)

    @pytest.mark.parametrize("label", ["none", "rayleigh", "rician:3"])
    def test_snr_without_users_rejected(self, label):
        # No user gives a mean over nothing: NaN with warnings, and with no
        # fading a report that read holds=True.  Refused before any draw.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"SNR must have at least one user, got shape \(3, 0\)"):
            mac.verify_jensen(np.zeros((3, 0)), np.full(3, 0.2), parse_fading(label),
                              UtilityParams(), n_samples=10_000, rng=rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("arg, value, match", [
        ("fading", "rayleigh", "fading must be a FadingModel, got 'rayleigh'"),
        ("fading", None, "fading must be a FadingModel, got None"),
        ("params", None, "params must be a UtilityParams, got None"),
        ("params", FadingModel("rayleigh"), "params must be a UtilityParams, got FadingModel"),
    ], ids=["fading-str", "fading-None", "params-None", "params-FadingModel"])
    def test_argument_of_wrong_type_rejected(self, arg, value, match):
        snr, tau = self._instance()
        args = {"fading": FadingModel("rayleigh"), "params": UtilityParams(), arg: value}
        with pytest.raises(ValueError, match=f"^{re.escape(match)}"):
            mac.verify_jensen(snr, tau, args["fading"], args["params"], n_samples=10_000, rng=0)

    def test_no_fading_is_exact(self):
        snr, tau = self._instance()
        rep = mac.verify_jensen(snr, tau, FadingModel("none"), UtilityParams())
        assert rep.mean_R == rep.r
        assert rep.std_R == 0.0
        assert rep.holds

    def test_rayleigh_bound_holds(self):
        snr, tau = self._instance()
        rep = mac.verify_jensen(snr, tau, FadingModel("rayleigh"), UtilityParams(),
                                n_samples=20_000, rng=0)
        assert rep.holds
        assert rep.mean_R <= rep.r + 3.0 * rep.sem

    def test_recomputed_allocation_reported(self):
        snr, tau = self._instance()
        rep = mac.verify_jensen(snr, tau, FadingModel("rayleigh"), UtilityParams(),
                                n_samples=20_000, fixed_allocation=False, rng=0)
        assert rep.fixed_allocation is False
        assert rep.n_samples == 20_000

    def test_stochasticity_orders_mean_reward(self):
        # More line-of-sight means less variance in |H|^2 and, through the
        # concave utility, a smaller Jensen penalty.
        snr, tau = self._instance(8)
        models = [FadingModel("rayleigh"), FadingModel("rician", k_factor=3.0),
                  FadingModel("rician", k_factor=10.0), FadingModel("none")]
        reps = [mac.verify_jensen(snr, tau, m, UtilityParams(),
                                  n_samples=100_000, rng=1) for m in models]
        for lo, hi in zip(reps, reps[1:]):
            slack = 3.0 * (lo.sem + hi.sem)
            assert lo.mean_R <= hi.mean_R + slack, \
                f"{lo.model} mean {lo.mean_R} above {hi.model} mean {hi.mean_R}"

    # Reports of extreme inputs the checks accept, recorded from the
    # whole-array reward before it worked in place: faded SNRs that overflow
    # to inf (and 0 * inf = NaN on zero-SNR pairs, which must stay masked
    # out), and a bandwidth at the float maximum, where a station's share
    # 1 / (1 / rate) is inf.  Recomputing the allocation from inf SNRs is
    # NaN there too.
    _HUGE = [[1e300, 0.5, 0.0, 2.0 ** -53, 0.9], [0.0, 1e308, 0.25, 0.75, 1.0],
             [0.1, 0.0, 0.6, 1e200, 0.3]]
    _LARGE = [[1e150, 0.5, 0.0, 2.0 ** -53, 0.9], [0.0, 1e120, 0.25, 0.75, 1.0],
              [0.1, 0.0, 0.6, 1e100, 0.3]]
    _MAX_BW = UtilityParams(bandwidth=float(np.finfo(float).max))

    @pytest.mark.parametrize("snr, fading, params, fixed, row", [
        (_HUGE, FadingModel("rayleigh", omega=1e308), UtilityParams(), True,
         "rayleigh,10000,True,0.986488340853813,1.0,0.0,0.0,False"),
        (_HUGE, FadingModel("rayleigh", omega=1e308), UtilityParams(), False,
         "rayleigh,10000,False,0.986488340853813,nan,nan,nan,False"),
        (_LARGE, FadingModel("rician", k_factor=3.0), UtilityParams(), True,
         "rician:3,10000,True,0.9864855251613642,0.9787364951674201,"
         "0.015657653446288895,0.00015657653446288894,True"),
        (_LARGE, FadingModel("rician", k_factor=3.0), UtilityParams(), False,
         "rician:3,10000,False,0.9864855251613642,0.9698478715638262,"
         "0.024116431704888138,0.00024116431704888138,True"),
        (_LARGE, FadingModel("rayleigh", omega=1e3), UtilityParams(aggregate="sum"), True,
         "rayleigh,10000,True,0.9864855251613642,0.9999635749630764,"
         "0.0009794709858182706,9.794709858182707e-06,False"),
        ([[1.0, 0.5, 0.0], [0.0, 0.3, 1.0]], FadingModel("rayleigh"), _MAX_BW, True,
         "rayleigh,10000,True,1.0,1.0,0.0,0.0,True"),
    ], ids=["huge-omega-fixed", "huge-omega-recomputed", "rician-fixed",
            "rician-recomputed", "omega-1e3-sum", "bandwidth-at-float-max"])
    def test_extreme_inputs_report_as_recorded(self, snr, fading, params, fixed, row):
        snr = np.array(snr)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = mac.verify_jensen(snr, np.array([0.2, 0.5, 0.0])[:len(snr)], fading, params,
                                    n_samples=10_000, fixed_allocation=fixed, rng=5)
        assert rep.to_csv().splitlines()[1] == row

    def test_report_serialization_mentions_fields(self):
        snr, tau = self._instance()
        rep = mac.verify_jensen(snr, tau, FadingModel("none"), UtilityParams())
        assert "holds=True" in rep.to_text()
        assert rep.to_csv().splitlines()[0].startswith("model,")


@st.composite
def jensen_cases(draw):
    """A state SNR matrix (1-4 stations and 1-9 users, or 8 stations and one
    user) with rate-0 entries, one threshold per station, a fading model,
    and a chunk size with a sample count on or next to a chunk boundary."""
    n_bs, n_ues = draw(st.tuples(st.integers(1, 4), st.integers(1, 9)) | st.just((8, 1)))
    entry = st.floats(0.0, 1.0) | st.sampled_from([0.0, 2.0 ** -53])
    snr = np.reshape(draw(st.lists(entry, min_size=n_bs * n_ues, max_size=n_bs * n_ues)),
                     (n_bs, n_ues))
    tau = draw(st.lists(st.floats(0.0, 1.0), min_size=n_bs, max_size=n_bs))
    fading = parse_fading(draw(st.sampled_from(["rayleigh", "rician:0", "rician:3",
                                                "rician:10"])))
    # The shipped chunk, and one whose edges sit at the 10000-sample floor.
    chunk = draw(st.sampled_from([mac._JENSEN_CHUNK, 10_001]))
    k = math.ceil(10_001 / chunk)  # the first multiple with k * chunk - 1 >= 10000
    n_samples = draw(st.sampled_from([10_000, k * chunk - 1, k * chunk, k * chunk + 1,
                                      2 * k * chunk + 1]))
    return snr, tau, fading, chunk, n_samples


class TestJensenChunks:
    """verify_jensen scores its samples in chunks; the report equals one
    pass over the whole sample array, field for field."""

    @settings(max_examples=40, deadline=None)
    @given(case=jensen_cases(), fixed=st.booleans(),
           aggregate=st.sampled_from(["mean", "sum"]), seed=st.integers(0, 2 ** 32 - 1))
    def test_report_equals_whole_array_reference(self, case, fixed, aggregate, seed):
        # At 1 usable CPU the calling thread scores every chunk; at 2, two
        # scoring threads do.
        snr, tau, fading, chunk, n_samples = case
        params = UtilityParams(aggregate=aggregate)
        want = reference_verify_jensen(snr, tau, fading, params, n_samples, fixed, seed)
        for cpus in (1, 2):
            with mock.patch.object(mac, "_JENSEN_CHUNK", chunk), \
                    pytest.MonkeyPatch.context() as patch:
                set_usable_cpus(patch, cpus)
                got = mac.verify_jensen(snr, tau, fading, params, n_samples=n_samples,
                                        fixed_allocation=fixed, rng=seed)
            assert got == want, f"{cpus} usable CPUs"

    # Peak traced memory of a 200000-sample call on a 3x5 matrix, at 2 usable
    # CPUs, where the caller and one helper thread each hold the chunk they
    # took.  One (200000, 3, 5) float block is 22.9 MiB.  A Rayleigh draw is
    # made chunk by chunk, so no block-sized array exists; a Rician draw holds
    # its real normals, one block, and draws each chunk's imaginary normals on
    # its own.  The chunked draw and scoring measured at most 6.7 MiB on top
    # (numpy 2.4: 5.0-6.7 MiB Rayleigh, 27.9-29.6 MiB Rician; 3.4-4.1 and
    # 26.3-27.0 MiB at 1 CPU), and the bound allows them 8 MiB.  Drawing the
    # whole amplitude array at once peaked at 26.3-27.0 MiB Rayleigh and 45.8
    # MiB Rician; drawing and scoring it at once, as
    # ``reference_verify_jensen`` does, peaks at 68.7 MiB (fixed allocation)
    # and 103.6 MiB (recomputed).
    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "recomputed"])
    @pytest.mark.parametrize("label, blocks", [("rayleigh", 0), ("rician:3", 1)])
    def test_peak_memory_bounded(self, label, blocks, fixed, monkeypatch):
        set_usable_cpus(monkeypatch, 2)
        snr = np.random.default_rng(3).random((3, 5))
        n_samples = 200_000
        block_mib = n_samples * snr.size * 8 / 2 ** 20
        peak_mib = peak_traced_bytes(
            mac.verify_jensen, snr, np.full(3, 0.2), parse_fading(label), UtilityParams(),
            n_samples=n_samples, fixed_allocation=fixed, rng=0) / 2 ** 20
        assert peak_mib < blocks * block_mib + 8.0, f"peak {peak_mib:.1f} MiB"


def _jensen_reports(cfg, policy, block):
    """A ``map_seeds`` block function: one Rician report per seed."""
    snr = np.random.default_rng(3).random((3, 5))
    return [mac.verify_jensen(snr, np.full(3, 0.2), parse_fading("rician:3"), UtilityParams(),
                              n_samples=10_000, rng=seed) for seed in block]


class TestJensenThreads:
    """verify_jensen takes and scores its chunks on the calling thread and,
    at two or more usable CPUs, on one helper thread it starts and joins."""

    _SNR = np.random.default_rng(3).random((3, 5))

    def _run(self, label="rayleigh", **kw):
        return mac.verify_jensen(self._SNR, np.full(3, 0.2), parse_fading(label),
                                 UtilityParams(), n_samples=40_000, rng=1, **kw)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_scoring_threads(self, cpus, monkeypatch):
        set_usable_cpus(monkeypatch, cpus)
        seen, reward_terms = [], mac.reward_terms

        def recording(*args, **kwargs):
            seen.append(threading.current_thread())
            return reward_terms(*args, **kwargs)

        monkeypatch.setattr(mac, "reward_terms", recording)
        before = threading.enumerate()
        self._run()
        assert threading.enumerate() == before
        # The no-fading reward r, then one call per 4096-sample chunk.
        assert len(seen) == 1 + 10 and seen[0] is threading.current_thread()
        scorers = set(seen[1:])
        assert threading.current_thread() in scorers
        assert len(scorers) <= (1 if cpus == 1 else 2)

    @pytest.mark.parametrize("label", ["rayleigh", "rician:3"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scoring_error_propagates_unchanged(self, cpus, label, monkeypatch):
        # The third reward_terms call is the second chunk's.
        set_usable_cpus(monkeypatch, cpus)
        boom, calls, reward_terms = RuntimeError("third call"), itertools.count(1), mac.reward_terms

        def failing(*args, **kwargs):
            if next(calls) == 3:
                raise boom
            return reward_terms(*args, **kwargs)

        monkeypatch.setattr(mac, "reward_terms", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError) as info:
            self._run(label, fixed_allocation=False)
        assert info.value is boom
        assert threading.enumerate() == before

    def test_caller_errstate_holds_on_scoring_threads(self, monkeypatch):
        # omega = 1e308 overflows |H|^2 (see test_extreme_inputs_report_as_recorded).
        set_usable_cpus(monkeypatch, 2)
        snr, tau = np.full((3, 5), 0.5), np.full(3, 0.2)
        huge = FadingModel("rayleigh", omega=1e308)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            mac.verify_jensen(snr, tau, huge, UtilityParams(), n_samples=10_000, rng=0)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = mac.verify_jensen(snr, tau, huge, UtilityParams(), n_samples=10_000, rng=0)
        assert rep.mean_R == 1.0

    def test_stress_every_chunk_scored_once_four_in_flight(self):
        # More scoring threads than cores and a short switch interval, so the
        # threads interleave often.  A lost or doubled chunk, or a fifth
        # chunk taken while four are unscored (one held by each thread),
        # breaks an assertion, and so does never holding four at once.
        n, lock, taken, scored, in_flight = 3000, threading.Lock(), [], [], []

        def chunks():
            for i in range(n):
                with lock:
                    taken.append(i)
                    in_flight.append(len(taken) - len(scored))
                yield (i,)

        def score(i):
            time.sleep(1e-5)  # slower than a take, so the takes run ahead
            with lock:
                scored.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            call = threading.Thread(target=mac._score_chunks, args=(score, chunks(), 4))
            before = threading.enumerate()
            call.start()
            call.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not call.is_alive()
        assert threading.enumerate() == before
        assert sorted(scored) == list(range(n))
        assert max(in_flight) == 4

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("failing", [0, 5, 9], ids=["first", "middle", "last"])
    def test_any_chunks_error_is_raised(self, threads, failing):
        # The last chunk may still be scored on the helper when the caller
        # finds the chunks ended; its error must not be lost either.
        boom = RuntimeError("chunk")

        def score(i):
            if i == failing:
                raise boom

        before = threading.enumerate()
        with pytest.raises(RuntimeError) as info:
            mac._score_chunks(score, ((i,) for i in range(10)), threads)
        assert info.value is boom
        assert threading.enumerate() == before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_stops_the_takes(self, threads):
        # The first chunk raises.  Any other chunk is scored only once that
        # error is raised, so each other worker holds one chunk at most when
        # the error is recorded, and may take one more after it: of 10000
        # chunks at most 1 + 2 (threads - 1) are taken.
        boom, raised, taken = RuntimeError("first chunk"), threading.Event(), []

        def chunks():
            for i in range(10_000):
                taken.append(i)
                yield (i,)

        def score(i):
            if i == 0:
                raised.set()
                raise boom
            assert raised.wait(60)

        before = threading.enumerate()
        with pytest.raises(RuntimeError) as info:
            mac._score_chunks(score, chunks(), threads)
        assert info.value is boom
        assert threading.enumerate() == before
        assert 1 <= len(taken) <= 2 * threads - 1

    def test_same_reports_in_forked_map_seeds_worker(self, forks):
        # forks sets 2 usable CPUs, so both processes start scoring threads.
        got = map_seeds(_jensen_reports, [(None, None, 0, 4)], 2)
        assert len(forks) == 1
        assert got == _jensen_reports(None, None, range(4))


def test_no_thread_pool_loaded():
    # concurrent.futures loads logging, ~10 ms: neither `import cellsim` nor a
    # verify_jensen call at one or two usable CPUs loads it.
    script = textwrap.dedent("""
        import os, sys
        import numpy as np
        import cellsim as cs
        loaded = ["concurrent.futures" in sys.modules]
        args = (np.full((3, 5), 0.5), np.full(3, 0.2), cs.FadingModel("rayleigh"),
                cs.UtilityParams())
        for cpus in ({0}, {0, 1}):
            os.sched_getaffinity = lambda pid: cpus
            cs.verify_jensen(*args, n_samples=10_000, rng=0)
            loaded.append("concurrent.futures" in sys.modules)
        print(loaded)
    """)
    src = os.path.dirname(os.path.dirname(mac.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


class TestConcavityProbe:
    def test_probe_passes_at_default_tolerance(self):
        rep = mac.concavity_probe(UtilityParams(), np.full(3, 0.4),
                                  n_trials=2_000, rng=2)
        assert rep.passed, rep.to_text()
        assert rep.violations == 0
        assert rep.max_violation <= 1e-9

    def test_probe_with_every_pair_connected(self):
        # tau = 0 connects every pair, since every base SNR is positive.
        rep = mac.concavity_probe(UtilityParams(), np.zeros(3),
                                  n_trials=2_000, rng=3)
        assert rep.passed
        assert rep.n_checks == 2_000 * 5

    def test_sum_aggregate_also_concave(self):
        rep = mac.concavity_probe(UtilityParams(aggregate="sum"),
                                  np.full(3, 0.4), n_trials=2_000, rng=4)
        assert rep.passed

    @pytest.mark.parametrize("tau, match", [
        ([np.nan, 0.1, 0.2], "finite and lie in"),
        ([5.0, -3.0, 0.1], "finite and lie in"),
        ([0.1, 0.2, 1.5], "finite and lie in"),
        ([[0.1, 0.2, 0.3]], "non-empty 1-D"),
        ([], "non-empty 1-D"),
    ], ids=["nan", "out-of-range", "above-1", "2-D", "empty"])
    def test_bad_tau_rejected(self, tau, match):
        with pytest.raises(ValueError, match=match):
            mac.concavity_probe(UtilityParams(), tau, n_trials=10, rng=0)

    @pytest.mark.parametrize("params", [None, FadingModel("rayleigh")], ids=["None", "FadingModel"])
    def test_params_of_wrong_type_rejected(self, params):
        with pytest.raises(ValueError, match="^params must be a UtilityParams, got "):
            mac.concavity_probe(params, np.full(3, 0.4), n_trials=10, rng=0)

    @pytest.mark.parametrize("n_ues", [0, -2])
    def test_user_count_floor_enforced(self, n_ues):
        # Zero users would give a report of zero checks that reads as passed.
        with pytest.raises(ValueError, match="n_ues must be at least 1"):
            mac.concavity_probe(UtilityParams(), np.full(3, 0.4), n_trials=10,
                                rng=0, n_ues=n_ues)
