"""Connection, allocation, utility, and reward-bound checks.

Hand-computed anchors: log2(1+1) = 1 so data_rate(1, b) = b exactly; a
delivered rate of 9 maps to utility 0.75 under the default shape because
10*log10(10) = 10 sits three quarters of the way through [-20, 20].
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellsim.config import FadingModel, UtilityParams
from cellsim import mac, radio

from reference_impl import reference_reward


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
        rews, utils = mac.reward(snr, tau, params, power)
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
    n_bs, n_ues = draw(st.integers(1, 4)), draw(st.integers(1, 6))
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

    def test_report_serialization_mentions_fields(self):
        snr, tau = self._instance()
        rep = mac.verify_jensen(snr, tau, FadingModel("none"), UtilityParams())
        assert "holds=True" in rep.to_text()
        assert rep.to_csv().splitlines()[0].startswith("model,")


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
