"""Connection logic, rate-fair sharing, per-user utility, and the step reward.

Given a normalized SNR matrix ``gamma`` (stations x users) and per-station
association thresholds ``tau``:

    d_ij = b log2(1 + gamma_ij)                      achievable rate
    c_ij = 1 iff gamma_ij >= tau_i and d_ij > 0      connection indicator
    a_ij = 1 / sum_k c_ik d_ij / d_ik                rate-fair time fraction

so every user connected to station i is delivered the same rate
``a_ij d_ij = 1 / sum_k c_ik / d_ik``.  A user's rate aggregates its
delivered rates over the stations serving it (mean by default), maps
through the clipped log utility ``g`` and the linear rescale ``h`` onto
[0, 1], and the step reward is the mean utility over all users.

Fading never alters connections or allocations: both are always computed
from the state SNR matrix, while the faded (unclipped) SNR enters only the
``log2(1 + .)`` rate terms.  That structure makes the no-fading reward an
upper bound on the expected faded reward, which ``verify_jensen`` checks by
Monte Carlo and ``concavity_probe`` supports by probing concavity of the
composed per-user utility.

``reward_terms`` is a station stage (each pair's connection and delivered
rate; station i's row depends only on its own SNRs and tau_i) followed by a
user stage (aggregate, utility) on each user's rate and serving-station
count, both summed over stations in station order.  ``action_rewards``
shares that in-order sum: it runs the station stage once per station
threshold, then keeps a running sum over the stations of every partial
action code, so each user's rate adds the same numbers in the same station
order as ``reward_terms`` on that action's thresholds, and the bits agree.

The kernels take float arrays as they are and do not re-check them; the
config validates every parameter and position.  Only ``verify_jensen`` and
``concavity_probe``, which take SNRs or thresholds from their caller,
convert and check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import FadingModel, UtilityParams, _integer
from .radio import _fading_chunks

__all__ = [
    "data_rate",
    "connections",
    "ratefair_fractions",
    "utility",
    "reward_terms",
    "action_rewards",
    "reward",
    "JensenReport",
    "verify_jensen",
    "ConcavityReport",
    "concavity_probe",
]


def data_rate(gamma, bandwidth: float):
    """Achievable rate b log2(1 + gamma) of a non-negative SNR."""
    return _rate(np.array(gamma, dtype=float), bandwidth)[()]


def _rate(gamma: np.ndarray, bandwidth: float) -> np.ndarray:
    """``data_rate`` computed in the float array ``gamma``, which it
    overwrites and returns."""
    gamma += 1.0
    np.log2(gamma, out=gamma)
    gamma *= bandwidth
    return gamma


def connections(snr, tau) -> np.ndarray:
    """Boolean connection matrix: gamma_ij >= tau_i and d_ij > 0.

    A rate is positive exactly when gamma_ij > 2**-53; at or below that,
    1 + gamma rounds to 1.  ``snr`` has shape (..., n_bs, n_ues) and ``tau``
    (..., n_bs); leading axes broadcast, so a single SNR matrix can be
    evaluated against a batch of threshold vectors at once.
    """
    conn = snr >= tau[..., None]
    conn &= snr > 2.0 ** -53
    return conn


def ratefair_fractions(rates, conn) -> np.ndarray:
    """Time fraction a_ij each station grants each connected user, from the
    state rates ``d_ij = b log2(1 + gamma_ij)``.

    Disconnected pairs get 0.  For station i the delivered rate
    ``a_ij d_ij`` is the same for every connected user j, namely
    ``1 / sum_k c_ik / d_ik``.
    """
    return _fractions(np.where(conn, rates, 1.0), conn)


def _fractions(safe, conn) -> np.ndarray:
    """``ratefair_fractions`` from ``safe``, the state rates where connected
    and 1.0 elsewhere, which it leaves as they are."""
    # 1 / 1.0 where unconnected, so the product is np.where(conn, 1 / safe, 0.0).
    terms = np.divide(1.0, safe)
    terms *= conn
    load = terms.sum(axis=-1, keepdims=True)
    share = np.divide(1.0, load, out=np.zeros_like(load), where=load > 0)
    # Where unconnected share / 1.0 may be inf (a rate near the float
    # maximum), and 0 * inf is NaN: mask instead of multiplying.
    return np.where(conn, np.divide(share, safe, out=terms), 0.0)


def utility(rate, params: UtilityParams):
    """Clipped log utility of a delivered rate, rescaled onto [0, 1]."""
    return _utility(np.array(rate, dtype=float), params)[()]


def _utility(rate: np.ndarray, params: UtilityParams) -> np.ndarray:
    """``utility`` computed in the float array ``rate``, which it overwrites
    and returns."""
    rate += params.w2
    np.log(rate, out=rate)
    rate *= params.w1
    rate /= np.log(params.w3)
    np.clip(rate, params.clip_low, params.clip_high, out=rate)
    rate -= params.clip_low
    rate /= params.clip_high - params.clip_low
    return rate


def _station_stage(snr_state, tau, params: UtilityParams, reward_snr=None, power=None):
    """Per station-user pair: (delivered rate ``a_ij d_ij``, 0 where
    unconnected; connections).  Connections and allocations come from
    ``snr_state``; the rate terms are the state rates, or those of
    ``reward_snr`` or of ``snr_state * power`` when given.  Those are worked
    out only after the allocations, so fewer full-size arrays live at once."""
    conn = connections(snr_state, tau)
    safe = np.where(conn, data_rate(snr_state, params.bandwidth), 1.0)
    delivered = _fractions(safe, conn)
    if reward_snr is None and power is None:
        # Where unconnected the fraction is 0.0 and safe 1.0, so the product
        # is the 0.0 a mask would give.
        delivered *= safe
        return delivered, conn
    del safe
    rates = (data_rate(reward_snr, params.bandwidth) if power is None else
             _rate(np.multiply(snr_state, power), params.bandwidth))
    # A faded rate may be inf, and 0 * inf is NaN: mask instead.  Either
    # operand may broadcast over the other; the product goes into the one
    # of full shape.
    shape = np.broadcast_shapes(delivered.shape, rates.shape)
    out = delivered if delivered.shape == shape else rates if rates.shape == shape else None
    return np.where(conn, np.multiply(delivered, rates, out=out), 0.0), conn


def _user_stage(rate, n, params: UtilityParams):
    """(mean utility, per-user utilities) from each user's delivered rate
    summed over stations and its number of serving stations, both float
    arrays of the caller's, which it overwrites."""
    if params.aggregate != "sum":
        # Mean over the serving stations; 0 when unserved: there every term
        # of the sum is the station stage's literal 0.0, so rate is +0.0
        # and dividing it by 1 keeps those bytes.
        rate /= np.maximum(n, 1.0, out=n)
    utils = _utility(rate, params)
    return utils.mean(axis=-1), utils


def reward_terms(snr_state, tau, params: UtilityParams, reward_snr=None):
    """Deterministic reward core: (mean utility, per-user utilities).

    Connections and allocations are derived from ``snr_state``; the rate
    terms use ``reward_snr`` when given (e.g. a faded matrix).  Leading batch
    axes broadcast through, so ``tau`` may be a batch of threshold vectors
    or ``reward_snr`` a batch of faded matrices.
    """
    return _reward_core(snr_state, tau, params, reward_snr)


def _reward_core(snr_state, tau, params: UtilityParams, reward_snr=None, power=None):
    """``reward_terms``, with ``_station_stage``'s choice of rate terms."""
    delivered, conn = _station_stage(snr_state, tau, params, reward_snr, power)
    # Stations in order, as action_rewards adds them; connections count as
    # 0.0 or 1.0.  On large batches in-order adds beat numpy's short-axis
    # reduction.
    rate, n = delivered[..., 0, :].copy(), conn[..., 0, :] * 1.0
    for i in range(1, delivered.shape[-2]):
        rate += delivered[..., i, :]
        n += conn[..., i, :]
    return _user_stage(rate, n, params)


def action_rewards(snr_state, taus, params: UtilityParams):
    """Fading-free ``reward_terms`` of every action code, bit for bit:
    (rewards (..., 3**n_bs), utilities (..., 3**n_bs, n_ues)).

    ``snr_state`` is (..., n_bs, n_ues) and ``taus`` (..., 3, n_bs), each
    station's threshold under the deltas -1, 0 and +1.  Codes are base-3
    with station 0 most significant, as ``env.decode_action`` reads them.
    """
    # (2, ..., 3, n_bs, n_ues): delivered rates, and connections as 0.0 or
    # 1.0, whose sums count serving stations (bool + bool is logical or).
    terms = np.array(_station_stage(snr_state[..., None, :, :], taus, params), dtype=float)
    *lead, _, n_bs, n_ues = terms.shape
    sums = terms[..., 0, :]
    for i in range(1, n_bs):
        # Every partial code times 3 plus station i's digit, in station order.
        sums = (sums[..., :, None, :] + terms[..., None, :, i, :]).reshape(*lead, -1, n_ues)
    return _user_stage(*sums, params)


def reward(snr_state, tau, params: UtilityParams, power=None):
    """Step rewards of B episodes: (rewards (B,), per-user utilities (B, n_ues)).

    ``snr_state`` is (B, n_bs, n_ues) and ``tau`` (B, n_bs).  ``power`` is
    this step's (B, n_bs, n_ues) fading gain |H|^2 of every station-user
    pair, a slice of the blocks each episode drew at reset, or None when
    fading is off; the rate terms then use ``snr_state * power``.
    """
    return _reward_core(snr_state, tau, params, power=power)


@dataclass(frozen=True)
class JensenReport:
    """Monte Carlo comparison of the faded reward against its no-fading bound."""

    model: str
    n_samples: int
    fixed_allocation: bool
    r: float
    mean_R: float
    std_R: float
    holds: bool

    @property
    def sem(self) -> float:
        return self.std_R / math.sqrt(self.n_samples)

    def to_text(self) -> str:
        lines = [
            f"jensen: model={self.model} fixed_allocation={self.fixed_allocation}"
            f" n_samples={self.n_samples}",
            f"r={self.r!r}",
            f"mean_R={self.mean_R!r}",
            f"std_R={self.std_R!r}",
            f"sem={self.sem!r}",
            f"holds={self.holds}",
        ]
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = "model,n_samples,fixed_allocation,r,mean_R,std_R,sem,holds"
        row = (f"{self.model},{self.n_samples},{self.fixed_allocation},"
               f"{self.r!r},{self.mean_R!r},{self.std_R!r},{self.sem!r},{self.holds}")
        return header + "\n" + row


def _thresholds(tau) -> np.ndarray:
    """A caller's threshold vector as floats, checked: 1-D, non-empty, every
    entry finite and in [0, 1]."""
    tau = np.asarray(tau, dtype=float)
    if tau.ndim != 1 or tau.size == 0:
        raise ValueError(f"tau must be a non-empty 1-D array, got shape {tau.shape}")
    if not (np.isfinite(tau).all() and (tau >= 0.0).all() and (tau <= 1.0).all()):
        raise ValueError("tau must be finite and lie in [0, 1]")
    return tau


_JENSEN_CHUNK = 4096  # samples scored per reward_terms call: ~0.5 MB per (chunk, 3, 5) array


def verify_jensen(snr, tau, fading: FadingModel, params: UtilityParams,
                  n_samples: int = 100_000, fixed_allocation: bool = True,
                  rng=None) -> JensenReport:
    """Check E[reward under fading] <= reward without fading by Monte Carlo.

    With ``fixed_allocation`` connections and allocations stay frozen at
    their state values (the regime in which the bound is a theorem) and the
    check asserts ``mean_R <= r + 3 std_R / sqrt(n)``.  Without it the whole
    pipeline is recomputed from every faded draw and the report is
    informational only.  ``snr`` must be a finite, non-negative
    (n_bs, n_ues) matrix and ``tau`` one threshold in [0, 1] per station.

    The ``n_samples`` fading blocks are the draw of one ``sample_fading``
    call, drawn and scored in chunks of a few thousand samples, so each
    chunk's arrays stay in cache; only the per-sample rewards (and, for
    Rician, the real normals) grow with ``n_samples``.  The mean and
    standard deviation run over all the rewards at once, so the report does
    not depend on the chunk size.
    """
    n_samples = _integer("n_samples", n_samples)
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 2:
        raise ValueError(f"SNR must be an (n_bs, n_ues) matrix, got shape {snr.shape}")
    if not (np.isfinite(snr).all() and (snr >= 0.0).all()):
        raise ValueError("SNR must be finite and non-negative")
    tau = _thresholds(tau)
    if len(tau) != snr.shape[0]:
        raise ValueError(f"tau has {len(tau)} thresholds but the SNR matrix has"
                         f" {snr.shape[0]} stations")
    r = float(reward_terms(snr, tau, params)[0])
    if fading.kind == "none":
        # Degenerate distribution: every sample equals r exactly.
        return JensenReport(model=fading.label(), n_samples=n_samples,
                            fixed_allocation=fixed_allocation,
                            r=r, mean_R=r, std_R=0.0, holds=True)
    chunks = _fading_chunks(fading, np.random.default_rng(rng), n_samples, snr.shape,
                            _JENSEN_CHUNK)
    samples = np.empty(n_samples)
    for start, amplitude in zip(range(0, n_samples, _JENSEN_CHUNK), chunks):
        chunk = slice(start, start + _JENSEN_CHUNK)
        power = np.square(amplitude, out=amplitude)
        if fixed_allocation:
            samples[chunk] = _reward_core(snr, tau, params, power=power)[0]
        else:
            samples[chunk] = reward_terms(np.multiply(power, snr, out=power), tau, params)[0]
    mean_r = float(samples.mean())
    std_r = float(samples.std())
    holds = mean_r <= r + 3.0 * std_r / math.sqrt(n_samples)
    return JensenReport(model=fading.label(), n_samples=n_samples,
                        fixed_allocation=fixed_allocation,
                        r=r, mean_R=mean_r, std_R=std_r, holds=bool(holds))


@dataclass(frozen=True)
class ConcavityReport:
    """Result of random midpoint probes of the composed per-user utility."""

    n_trials: int
    n_checks: int
    violations: int
    max_violation: float
    passed: bool

    def to_text(self) -> str:
        return (f"concavity: trials={self.n_trials} checks={self.n_checks}"
                f" violations={self.violations}"
                f" max_violation={self.max_violation!r} passed={self.passed}")


_PROBE_GAMMA_HIGH = 3.0  # the probe's rate-term SNRs lie in [0, 3)
_PROBE_TOL = 1e-9        # a midpoint gap above this is a violation


def concavity_probe(params: UtilityParams, tau, n_trials: int = 10_000,
                    rng=None, n_ues: int = 5) -> ConcavityReport:
    """Probe concavity of gamma -> utility(user rate) at frozen allocations.

    For each trial a base SNR matrix fixes the connection matrix and the
    allocation fractions (``tau = 0`` connects every pair); two random
    matrices x, y >= 0 and a random lambda then must satisfy

        G(lambda x + (1 - lambda) y) >= lambda G(x) + (1 - lambda) G(y) - tol

    for every user, where G is the per-user utility of ``reward_terms`` with
    x, y or their mix as the rate-term SNR.  ``n_trials`` and ``n_ues`` must
    be at least 1 and ``tau`` one threshold in [0, 1] per station.
    """
    n_trials, n_ues = _integer("n_trials", n_trials), _integer("n_ues", n_ues)
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if n_ues < 1:
        raise ValueError("n_ues must be at least 1")
    tau = _thresholds(tau)
    rng = np.random.default_rng(rng)
    shape = (n_trials, tau.shape[-1], n_ues)
    base = 1.0 - rng.random(shape)  # entries in (0, 1]
    x = rng.random(shape) * _PROBE_GAMMA_HIGH
    y = rng.random(shape) * _PROBE_GAMMA_HIGH
    lam = rng.random((n_trials, 1))
    mix = lam[..., None] * x + (1.0 - lam[..., None]) * y
    # One call: the three rate-term SNRs share base's connections and shares.
    g_mix, g_x, g_y = reward_terms(base, tau, params, reward_snr=np.stack([mix, x, y]))[1]
    gap = lam * g_x + (1.0 - lam) * g_y - g_mix  # positive gap above tol is a violation
    violations = int((gap > _PROBE_TOL).sum())
    return ConcavityReport(n_trials=n_trials, n_checks=int(gap.size),
                           violations=violations,
                           max_violation=float(gap.max()) if gap.size else 0.0,
                           passed=violations == 0)
