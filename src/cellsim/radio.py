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

``snr_matrix`` runs every pass, distances included, in its one result
array.  Most of its time is ``np.hypot`` (glibc ``hypot``, ~23 ns per
entry on a block of 40 episodes, against ~6.5 for the power of ten and
~1.5 for ``log10``), and ``hypot`` stays: ``sqrt(dx**2 + dy**2)`` rounds
differently in about 17% of draws, and the dataset digests pin these bits.
"""

from __future__ import annotations

import math

import numpy as np

from .config import FadingModel, RadioParams, _snr_from_distance

__all__ = ["snr_matrix", "sample_fading", "episode_fading_power"]


def _normalize(snr: np.ndarray, params: RadioParams) -> np.ndarray:
    """A linear SNR rescaled onto [0, 1] between the configured references,
    computed in the float array ``snr``, which it overwrites and returns."""
    snr -= params.snr_lower_ref
    snr /= params.snr_upper_ref - params.snr_lower_ref
    return np.clip(snr, 0.0, 1.0, out=snr)


def snr_matrix(bs_positions, ue_positions, params: RadioParams) -> np.ndarray:
    """Normalized SNR for every station-user pair, shape (..., n_bs, n_ues),
    from (n_bs, 2) station and (..., n_ues, 2) user position arrays; leading
    axes are episodes.  Every pass runs in the one result array: each
    station's x-differences go straight into its rows, and ``np.hypot``
    writes the distances back over them, so the only temporary is one
    station's y-differences, 1/n_bs of the result."""
    ue_x, ue_y = ue_positions[..., 0], ue_positions[..., 1]
    snr = np.empty((*ue_x.shape[:-1], len(bs_positions), ue_x.shape[-1]))
    dy = np.empty(ue_y.shape)
    for i, (x, y) in enumerate(bs_positions):
        row = snr[..., i, :]
        np.subtract(x, ue_x, out=row)
        np.hypot(row, np.subtract(y, ue_y, out=dy), out=row)
    return _normalize(_snr_from_distance(
        snr, params.tx_power_dbm, params.noise_dbm, params.reference_pathloss_db,
        params.pathloss_exponent, params.reference_distance), params)


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


def _rayleigh(model: FadingModel, u):
    """Rayleigh amplitudes from uniform draws on [0, 1) by the inverse CDF
    of the amplitude law, sqrt(-omega log(1 - U)), computed in ``u``, which
    it overwrites, as in ``_rician``; 1 - U keeps the log finite."""
    np.subtract(1.0, u, out=u)
    np.log(u, out=u)
    u *= -model.omega
    return np.sqrt(u, out=u)


def sample_fading(model: FadingModel, rng: np.random.Generator, size):
    """Draw an array of fading amplitudes H of shape ``size`` from ``rng``
    with E[H^2] = omega; ``none`` yields exactly 1 everywhere.  A Rician
    draw takes the whole real block, then the whole imaginary block."""
    if model.kind == "none":
        return np.ones(size)
    if model.kind == "rayleigh":
        return _rayleigh(model, rng.random(size))
    return _rician(model, rng.standard_normal(size), rng.standard_normal(size))


def _fading_chunks(model: FadingModel, rng: np.random.Generator, n: int, shape, chunk: int):
    """The draws behind ``sample_fading(model, rng, (n, *shape))``, bit for
    bit, as an iterator over ``chunk`` rows at a time, each the arguments
    after ``model`` of its transform: ``(u,)`` for ``_rayleigh``,
    ``(re, im)`` for ``_rician``.  The transforms of the chunks, in order,
    are that call's amplitudes, and ``rng`` ends in the same state.  Rayleigh
    draws each chunk's uniforms as it is taken; Rician draws the whole real
    block here, before returning, as the one call does, then each chunk's
    imaginary rows as it is taken, so only the real block grows with ``n``.
    A chunk is the caller's to overwrite."""
    if model.kind != "rician":
        return ((rng.random((min(chunk, n - start), *shape)),) for start in range(0, n, chunk))
    # Drawn here, on the calling thread.  Drawn lazily, by whichever of
    # verify_jensen's scoring threads took the first chunk, this 22.9 MiB
    # block (200000 x 3 x 5) grew RSS by ~21 MB per 200000-sample pass and
    # verify_jensen_mc's peak_rss_mb from 113 to 133.7 MB (8 of 8 pairs).
    re = rng.standard_normal((n, *shape))
    parts = np.split(re, range(chunk, n, chunk))
    return ((part, rng.standard_normal(part.shape)) for part in parts)


def episode_fading_power(model: FadingModel, rng: np.random.Generator, steps: int,
                         shape) -> np.ndarray:
    """|H|^2 of an episode's ``steps`` successive ``shape`` blocks in one
    draw, shape (steps, *shape): bit for bit ``steps`` calls of
    ``sample_fading(model, rng, shape) ** 2``, leaving ``rng`` in the same
    state.  Rician normals are drawn step-major, each step's real block
    before its imaginary block, as the per-step calls draw them."""
    if model.kind == "rician":
        z = rng.standard_normal((steps, 2, *shape))
        h = _rician(model, z[:, 0], z[:, 1])
    else:
        h = sample_fading(model, rng, (steps, *shape))
    return np.square(h, out=h)

