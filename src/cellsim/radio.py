"""Link SNR computation and small-scale fading.

Raw SNR follows a log-distance path loss law,

    SNR_dB = tx_dbm - noise_dbm - PL0_dB - 10 n log10(max(d, d0) / d0),

and is converted to a linear ratio.  State SNRs are then rescaled onto
[0, 1] between a fixed lower and upper reference.  Fading scales a linear
SNR by |H|^2 where the amplitude H is drawn per link and per step.

These functions take float arrays as they are: ``NetworkConfig`` checks
station positions and constants, motion stays on the map, and a
``FadingModel`` of kind ``none`` is the one way to switch fading off.
"""

from __future__ import annotations

import math

import numpy as np

from .config import FadingModel, RadioParams

__all__ = ["normalize_snr", "snr_matrix", "sample_fading", "fade_matrix"]


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


def sample_fading(model: FadingModel, rng: np.random.Generator, size):
    """Draw an array of fading amplitudes H of shape ``size`` from ``rng``
    with E[H^2] = omega; ``none`` yields exactly 1 everywhere."""
    if model.kind == "none":
        return np.ones(size)
    omega = model.omega
    if model.kind == "rayleigh":
        # Inverse CDF of the Rayleigh amplitude law; 1 - U keeps the log finite.
        u = 1.0 - rng.random(size)
        return np.sqrt(-omega * np.log(u))
    k = model.k_factor
    mean = math.sqrt(k * omega / (k + 1.0))
    sigma = math.sqrt(omega / (2.0 * (k + 1.0)))
    re = mean + sigma * rng.standard_normal(size)
    im = sigma * rng.standard_normal(size)
    return np.hypot(re, im)


def fade_matrix(snr: np.ndarray, model: FadingModel, rng) -> np.ndarray:
    """Scale each SNR entry by an independent |H|^2 draw.

    The result is intentionally left unclipped: faded entries may exceed 1
    and feed the reward computation as-is.  Clip to [0, 1] only if the
    result is ever exposed as state.  Without fading this is an exact copy.
    """
    return snr * sample_fading(model, rng, size=snr.shape) ** 2
