"""Link SNR computation and small-scale fading.

Raw SNR follows a log-distance path loss law,

    SNR_dB = tx_dbm - noise_dbm - PL0_dB - 10 n log10(max(d, d0) / d0),

and is converted to a linear ratio.  State SNRs are then rescaled onto
[0, 1] between a fixed lower and upper reference.  Fading scales a linear
SNR by |H|^2 where the amplitude H is drawn per link and per step; an
episode draws all its steps' blocks at once (``episode_fading_power``).

These functions take float arrays as they are: ``NetworkConfig`` checks
station positions and constants, motion stays on the map, and a
``FadingModel`` of kind ``none`` is the one way to switch fading off.
"""

from __future__ import annotations

import math

import numpy as np

from .config import FadingModel, RadioParams

__all__ = ["normalize_snr", "snr_matrix", "sample_fading", "episode_fading_power"]


def normalize_snr(raw, params: RadioParams):
    """Rescale a linear SNR onto [0, 1] between the configured references."""
    span = params.snr_upper_ref - params.snr_lower_ref
    return np.clip((raw - params.snr_lower_ref) / span, 0.0, 1.0)


def snr_matrix(bs_positions, ue_positions, params: RadioParams) -> np.ndarray:
    """Normalized SNR for every station-user pair, shape (..., n_bs, n_ues),
    from (n_bs, 2) station and (..., n_ues, 2) user position arrays; leading
    axes are episodes."""
    bs, ue = bs_positions, ue_positions
    dist = np.hypot(bs[:, None, 0] - ue[..., None, :, 0],
                    bs[:, None, 1] - ue[..., None, :, 1])
    return normalize_snr(params.raw_snr_at_distance(dist), params)


def _rician(model: FadingModel, re, im):
    """Rician amplitudes from standard-normal real and imaginary draws,
    computed in ``re``, which it overwrites, and ``im``: fresh temporaries
    made the bulk (200000, 3, 5) draw ~5% slower."""
    k, omega = model.k_factor, model.omega
    sigma = math.sqrt(omega / (2.0 * (k + 1.0)))
    re *= sigma
    re += math.sqrt(k * omega / (k + 1.0))
    im *= sigma
    return np.hypot(re, im, out=re)


def sample_fading(model: FadingModel, rng: np.random.Generator, size):
    """Draw an array of fading amplitudes H of shape ``size`` from ``rng``
    with E[H^2] = omega; ``none`` yields exactly 1 everywhere.  A Rician
    draw takes the whole real block, then the whole imaginary block."""
    if model.kind == "none":
        return np.ones(size)
    if model.kind == "rayleigh":
        # Inverse CDF of the Rayleigh amplitude law; 1 - U keeps the log finite.
        u = 1.0 - rng.random(size)
        return np.sqrt(-model.omega * np.log(u))
    return _rician(model, rng.standard_normal(size), rng.standard_normal(size))


def episode_fading_power(model: FadingModel, rng: np.random.Generator, steps: int,
                         shape) -> np.ndarray:
    """|H|^2 of an episode's ``steps`` successive ``shape`` blocks in one
    draw, shape (steps, *shape): bit for bit ``steps`` calls of
    ``sample_fading(model, rng, shape) ** 2``, leaving ``rng`` in the same
    state.  Rician normals are drawn step-major, each step's real block
    before its imaginary block, as the per-step calls draw them."""
    if model.kind == "rician":
        z = rng.standard_normal((steps, 2, *shape))
        return _rician(model, z[:, 0], z[:, 1]) ** 2
    return sample_fading(model, rng, (steps, *shape)) ** 2

