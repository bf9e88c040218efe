"""Path loss, SNR normalization, and fading sampler checks.

Closed-form anchors: with the default constants (tx 30 dBm, noise -90 dBm,
40 dB reference loss at 1 unit, exponent 3) the linear SNR is 10^8 / d^3,
so d = 100 gives exactly 100.0 and halving-type ratios are exact powers.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from cellsim.config import (FadingModel, RadioParams, _snr_from_distance, default_config,
                            parse_fading)
from cellsim import radio
from reference_impl import reference_snr_matrix


def raw_snr(params, distance):
    """Linear SNR of the path loss law at ``distance``, through the kernel
    ``snr_matrix`` runs, on a float copy: the kernel overwrites its array."""
    return _snr_from_distance(np.array(distance, dtype=float), params.tx_power_dbm,
                              params.noise_dbm, params.reference_pathloss_db,
                              params.pathloss_exponent, params.reference_distance)


def normalize(raw, params):
    """``radio._normalize`` of a float copy of ``raw``, which the kernel would
    overwrite."""
    return radio._normalize(np.array(raw, dtype=float), params)


class TestPathLoss:
    def test_snr_at_100_units_is_100(self):
        got = raw_snr(RadioParams(), 100.0)
        assert got == pytest.approx(100.0, rel=1e-12)

    def test_snr_at_reference_distance(self):
        got = raw_snr(RadioParams(), 1.0)
        assert got == pytest.approx(1e8, rel=1e-12)

    def test_distances_below_reference_clamp(self):
        params = RadioParams()
        at_ref = raw_snr(params, 1.0)
        closer = raw_snr(params, 0.25)
        assert closer == at_ref

    def test_doubling_distance_exponent_two(self):
        # With exponent 2 the linear SNR scales as 1/d^2, so doubling the
        # distance divides it by exactly 4.
        params = RadioParams(pathloss_exponent=2.0)
        near = raw_snr(params, 30.0)
        far = raw_snr(params, 60.0)
        assert far / near == pytest.approx(0.25, rel=1e-12)

    def test_doubling_distance_exponent_three(self):
        params = RadioParams()
        near = raw_snr(params, 30.0)
        far = raw_snr(params, 60.0)
        assert far / near == pytest.approx(0.125, rel=1e-12)

    def test_default_reference_window(self):
        # Upper reference at 20 units: 10^8 / 20^3 = 12500.  Lower at half
        # the 200x200 map diagonal, 100*sqrt(2) units: 25*sqrt(2).
        params = RadioParams()
        assert params.snr_upper_ref == pytest.approx(12500.0, rel=1e-12)
        assert params.snr_lower_ref == pytest.approx(25.0 * math.sqrt(2), rel=1e-12)


class TestNormalization:
    def test_window_endpoints(self):
        params = RadioParams()
        assert normalize(params.snr_upper_ref, params) == 1.0
        assert normalize(params.snr_lower_ref, params) == 0.0

    def test_clipping_outside_window(self):
        params = RadioParams()
        assert normalize(params.snr_upper_ref * 10.0, params) == 1.0
        assert normalize(params.snr_lower_ref * 0.5, params) == 0.0
        assert normalize(0.0, params) == 0.0

    def test_linear_midpoint(self):
        params = RadioParams(snr_upper_ref=1.0, snr_lower_ref=0.25)
        assert normalize(0.625, params) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_raw_snr(self):
        params = RadioParams()
        raws = np.linspace(params.snr_lower_ref, params.snr_upper_ref, 50)
        normed = normalize(raws, params)
        assert np.all(np.diff(normed) > 0)

    def test_array_input(self):
        params = RadioParams(snr_upper_ref=2.0, snr_lower_ref=1.0)
        got = normalize(np.array([0.5, 1.0, 1.5, 2.0, 9.0]), params)
        assert np.allclose(got, [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-12)


@st.composite
def snr_positions(draw):
    """(n_bs, 2) station and (..., n_ues, 2) user positions: 0-2 leading
    episode axes, 1-4 stations, 1-6 users.  A user sits anywhere on or off
    a 200 x 200 map (so often beyond the lower reference distance of every
    station), exactly on a station, or within the unit reference distance
    of one."""
    n_bs, n_ues = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    coord = st.floats(0.0, 200.0)
    bs = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n_bs, max_size=n_bs)))
    station = st.integers(0, n_bs - 1)
    anywhere = st.tuples(st.floats(-200.0, 400.0), st.floats(-200.0, 400.0))
    on = station.map(lambda i: tuple(bs[i]))
    near = st.tuples(station, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)).map(
        lambda s: (bs[s[0], 0] + s[1], bs[s[0], 1] + s[2]))
    size = math.prod(lead) * n_ues
    ue = draw(st.lists(anywhere | on | near, min_size=size, max_size=size))
    return bs, np.array(ue).reshape(*lead, n_ues, 2)


class TestSnrMatrix:
    @settings(max_examples=150, deadline=None)
    @given(positions=snr_positions())
    # Distance 0, inside the reference distance, and past the lower reference.
    @example(positions=(np.array([[50.0, 100.0], [150.0, 100.0]]),
                        np.array([[[50.0, 100.0], [50.5, 100.0], [199.0, 199.0]]])))
    def test_equals_broadcast_reference(self, positions):
        bs, ue = positions
        before = bs.copy(), ue.copy()
        params = RadioParams()
        got = radio.snr_matrix(bs, ue, params)
        want = reference_snr_matrix(bs, ue, params)
        assert got.shape == ue.shape[:-2] + (len(bs), ue.shape[-2])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(bs, before[0]) and np.array_equal(ue, before[1])

    def test_arguments_left_as_they_are(self):
        # The kernels compute in place, but only in arrays of their own.
        cfg = default_config()
        bs, ue = np.array(cfg.bs_positions), np.random.default_rng(0).random((4, 5, 2)) * 200
        before = [bs.copy(), ue.copy()]
        radio.snr_matrix(bs, ue, cfg.radio)
        assert all(np.array_equal(a, b) for a, b in zip(before, [bs, ue]))

    def test_shape_and_entries(self):
        cfg = default_config()
        ue_positions = np.array([[60.0, 110.0], [150.0, 100.0], [10.0, 10.0],
                                 [100.0, 60.0], [190.0, 190.0]])
        mat = radio.snr_matrix(np.array(cfg.bs_positions), ue_positions, cfg.radio)
        assert mat.shape == (3, 5)
        assert np.all((mat >= 0.0) & (mat <= 1.0))
        # Spot-check one entry against the law at its one distance.
        (bx, by), (ux, uy) = cfg.bs_positions[1], ue_positions[3]
        raw = raw_snr(cfg.radio, math.hypot(bx - ux, by - uy))
        assert mat[1, 3] == pytest.approx(normalize(raw, cfg.radio), rel=1e-12)

    def test_user_on_top_of_station_saturates(self):
        cfg = default_config()
        mat = radio.snr_matrix(np.array(cfg.bs_positions), np.array([[50.0, 100.0]]),
                               cfg.radio)
        assert mat[0, 0] == 1.0


class TestFadingSamplers:
    def test_none_is_unit_gain(self):
        rng = np.random.default_rng(0)
        arr = radio.sample_fading(FadingModel("none"), rng, size=(4, 2))
        assert arr.shape == (4, 2)
        assert np.all(arr == 1.0)

    def test_rayleigh_power_matches_omega(self):
        rng = np.random.default_rng(11)
        h = radio.sample_fading(FadingModel("rayleigh"), rng, size=1_000_000)
        assert np.mean(h ** 2) == pytest.approx(1.0, abs=0.01)

    def test_rayleigh_scales_with_omega(self):
        rng = np.random.default_rng(12)
        h = radio.sample_fading(FadingModel("rayleigh", omega=2.5), rng,
                                size=1_000_000)
        assert np.mean(h ** 2) == pytest.approx(2.5, abs=0.025)

    @pytest.mark.parametrize("k", [0.0, 3.0, 10.0])
    def test_rician_power_matches_omega(self, k):
        rng = np.random.default_rng(13)
        h = radio.sample_fading(FadingModel("rician", k_factor=k), rng,
                                size=1_000_000)
        assert np.mean(h ** 2) == pytest.approx(1.0, abs=0.01)

    def test_rician_huge_k_collapses_to_line_of_sight(self):
        # As K grows the scattered part vanishes and H concentrates at
        # sqrt(K/(K+1)) ~ 1.
        rng = np.random.default_rng(14)
        h = radio.sample_fading(FadingModel("rician", k_factor=1e6), rng,
                                size=100_000)
        assert np.std(h) < 1e-2
        assert np.mean(h) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("omega", [1.0, 2.5])
    def test_rayleigh_is_inverse_cdf_of_uniform_draws(self, omega):
        # The in-place form equals the plain expression bit for bit.
        u = np.random.default_rng(20).random((50, 3, 5))
        h = radio.sample_fading(FadingModel("rayleigh", omega=omega),
                                np.random.default_rng(20), (50, 3, 5))
        assert np.array_equal(h, np.sqrt(-omega * np.log(1.0 - u)))

    def test_rayleigh_distribution_shape(self):
        rng = np.random.default_rng(15)
        h = radio.sample_fading(FadingModel("rayleigh"), rng, size=100_000)
        stat = scipy.stats.kstest(h, lambda x: 1.0 - np.exp(-x ** 2))
        assert stat.pvalue > 0.01, f"KS p-value {stat.pvalue}"

    def test_rician_k0_matches_rayleigh(self):
        rng = np.random.default_rng(16)
        ray = radio.sample_fading(FadingModel("rayleigh"), rng, size=100_000)
        ric = radio.sample_fading(FadingModel("rician", k_factor=0.0), rng,
                                  size=100_000)
        stat = scipy.stats.ks_2samp(ray, ric)
        assert stat.pvalue > 0.01, f"KS p-value {stat.pvalue}"


class TestEpisodeFadingPower:
    @pytest.mark.parametrize("label", ["none", "rayleigh", "rician:3", "rician:0"])
    @pytest.mark.parametrize("shape", [(3, 5), (2, 4)])
    def test_equals_successive_per_step_draws(self, label, shape):
        model = parse_fading(label)
        ahead, stepped = np.random.default_rng(21), np.random.default_rng(21)
        block = radio.episode_fading_power(model, ahead, 12, shape)
        want = np.array([radio.sample_fading(model, stepped, shape) ** 2
                         for _ in range(12)])
        assert block.shape == (12,) + shape
        assert np.array_equal(block, want)
        # Both paths leave the stream at the same place.
        assert ahead.random() == stepped.random()


class TestFadingChunks:
    """``_fading_chunks`` yields each chunk's draws; its transform, chunk by
    chunk, is one ``sample_fading`` call in pieces."""

    @pytest.mark.parametrize("label", ["rayleigh", "rician:0", "rician:3"])
    @pytest.mark.parametrize("n, chunk", [(12, 4), (13, 4), (5, 8), (7, 1)],
                             ids=["divides", "remainder", "one-short-chunk", "rows"])
    def test_chunks_are_one_draw_in_pieces(self, label, n, chunk):
        model = parse_fading(label)
        transform = radio._rician if model.kind == "rician" else radio._rayleigh
        pieces, whole = np.random.default_rng(22), np.random.default_rng(22)
        # Every chunk is drawn before any is transformed, as verify_jensen's
        # other scoring thread may take chunks while one is transformed.
        draws = list(radio._fading_chunks(model, pieces, n, (3, 5), chunk))
        want = radio.sample_fading(model, whole, (n, 3, 5))
        # Both leave the stream at the same place.
        assert pieces.bit_generator.state == whole.bit_generator.state
        chunks = [transform(model, *d) for d in draws]
        assert [len(c) for c in chunks] == [min(chunk, n - s) for s in range(0, n, chunk)]
        assert np.concatenate(chunks).tobytes() == want.tobytes()

    @pytest.mark.parametrize("label", ["rayleigh", "rician:0", "rician:3"])
    def test_rician_real_block_drawn_on_the_call(self, label):
        # The Rician real block is drawn by the call, on the calling thread,
        # not by whichever thread takes the first chunk (see the comment in
        # _fading_chunks); Rayleigh draws nothing until a chunk is taken.
        model = parse_fading(label)
        rng, want = np.random.default_rng(23), np.random.default_rng(23)
        chunks = radio._fading_chunks(model, rng, 13, (3, 5), 4)
        if model.kind == "rician":
            want.standard_normal((13, 3, 5))
        assert rng.bit_generator.state == want.bit_generator.state
        next(chunks)
        assert rng.bit_generator.state != want.bit_generator.state


class TestFadedSnr:
    """A faded SNR is the matrix times an independent |H|^2 draw per entry,
    ``snr * sample_fading(model, rng, snr.shape) ** 2``, as in ``verify_jensen``."""

    def test_no_fading_returns_same_values(self):
        rng = np.random.default_rng(17)
        snr = np.random.default_rng(1).random((3, 5))
        faded = snr * radio.sample_fading(FadingModel("none"), rng, snr.shape) ** 2
        assert np.array_equal(faded, snr)

    def test_independent_unclipped_draws(self):
        # Every link of every block draws its own gain, and the faded matrix
        # feeds rate computations directly, so it may exceed the normalized
        # window.
        rng = np.random.default_rng(18)
        snr = np.full((3, 5), 0.9)
        faded = snr * radio.sample_fading(FadingModel("rayleigh"), rng,
                                          (200,) + snr.shape) ** 2
        assert len(np.unique(faded)) == faded.size
        assert np.any(faded > 1.0)
        assert np.all(faded >= 0.0)

    def test_mean_power_preserved(self):
        rng = np.random.default_rng(19)
        snr = np.array([[0.2, 0.5, 0.8]])
        faded = snr * radio.sample_fading(FadingModel("rayleigh"), rng,
                                          (200_000,) + snr.shape) ** 2
        assert np.allclose(faded.mean(axis=0), snr, rtol=0.01)
