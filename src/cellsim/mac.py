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

Both stages run in one kernel layout: C-contiguous arrays of shape
(n_bs, n_ues, *batch), stations first, then users, then every batch axis,
so each numpy pass is one contiguous loop over the batch instead of many
loops over 5 users.  The public functions keep their (..., n_bs, n_ues)
shapes: they move the input axes as views, the first ufunc on each input
writes into the kernel layout, and results come back as transposed views.
Two rules keep every result bit for bit what numpy gives with users
innermost:

- Sums over users (a station's load and the mean over users) add in the
  order numpy's ``sum(axis=-1)`` uses on a contiguous axis, which is
  pairwise from 8 entries (``_user_sum``); a plain reduction over an outer
  axis would add in order.  Sums over stations are explicit in-order adds
  and do not depend on the layout.
- ``log`` and ``log2`` run only on C-contiguous arrays: on a strided array
  numpy may take another libm path and round the last bit differently.

The kernels take float arrays as they are and do not re-check them; the
config validates every parameter and position.  Only ``verify_jensen`` and
``concavity_probe``, which take SNRs or thresholds from their caller,
convert and check them.

``verify_jensen`` is the one function here that starts threads.  When two
or more CPUs are usable, the calling thread and one helper thread, started
and joined within the call, each take the next fading chunk and score it,
so numpy's GIL-free loops overlap; with one the calling thread takes and
scores every chunk.  It takes no parameter for this, and its report is bit
for bit the same at any CPU count.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass

import numpy as np

from .config import FadingModel, UtilityParams, _check_type, _integer, _usable_cpus
from .radio import _fading_chunks, _rayleigh, _rician

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
    # 1 + gamma, added in float64 into a fresh array: one pass, where a
    # float copy and an in-place add would take two.
    rate = np.add(gamma, 1.0, out=np.empty(np.shape(gamma)), dtype=float)
    np.log2(rate, out=rate)
    rate *= bandwidth
    return rate[()]


def connections(snr, tau) -> np.ndarray:
    """Boolean connection matrix: gamma_ij >= tau_i and d_ij > 0.

    A rate is positive exactly when gamma_ij > 2**-53; at or below that,
    1 + gamma rounds to 1.  ``snr`` has shape (..., n_bs, n_ues) and ``tau``
    (..., n_bs); leading axes broadcast, so a single SNR matrix can be
    evaluated against a batch of threshold vectors at once.
    """
    return _connections(snr, tau[..., None])


def _connections(snr, tau) -> np.ndarray:
    """``connections`` with ``tau`` already broadcasting against ``snr``,
    C-contiguous whatever the layout of either."""
    conn = np.greater_equal(snr, tau, order="C")
    conn &= snr > 2.0 ** -53
    return conn


def ratefair_fractions(rates, conn) -> np.ndarray:
    """Time fraction a_ij each station grants each connected user, from the
    state rates ``d_ij = b log2(1 + gamma_ij)``.

    Disconnected pairs get 0.  For station i the delivered rate
    ``a_ij d_ij`` is the same for every connected user j, namely
    ``1 / sum_k c_ik / d_ik``.
    """
    rates, conn = np.asarray(rates), np.asarray(conn)
    nb = max(rates.ndim, conn.ndim) - 2
    rates, conn = _inward(rates, 2, nb), _inward(conn, 2, nb)
    return _outward(_fractions(np.where(conn, rates, 1.0), conn), 2)


def _inward(x, k, nb):
    """A view of ``x`` (..., c_1, ..., c_k) in kernel layout: the k core axes
    first, then ``nb`` batch axes, size-1 axes padding the front of them."""
    lead = x.ndim - k
    if lead < nb:
        x = x.reshape((1,) * (nb - lead) + x.shape)
    return x.transpose((*range(nb, nb + k), *range(nb)))


def _outward(x, k):
    """A view of the kernel-layout ``x`` with its k core axes moved last, in
    order."""
    return x.transpose((*range(k, x.ndim), *range(k)))


def _user_sum(x):
    """``x`` summed over its axis 0 (users) in the order numpy's
    ``sum(axis=-1)`` adds a contiguous axis, so the bits agree on
    non-negative entries whatever the layout: in order below 8 entries (as
    a reduction over axis 0 adds), 8 accumulators combined pairwise and the
    rest in order up to 128, halves above."""
    n = len(x)
    if n < 8:
        return np.add.reduce(x, 0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _user_sum(x[:half]) + _user_sum(x[half:])
    acc = x[:8].copy()
    for i in range(8, n - n % 8, 8):
        acc += x[i:i + 8]
    total = (acc[0] + acc[1]) + (acc[2] + acc[3])
    total += (acc[4] + acc[5]) + (acc[6] + acc[7])
    for row in x[n - n % 8:]:
        total += row
    return total


def _fractions(safe, conn) -> np.ndarray:
    """``ratefair_fractions`` in kernel layout (n_bs, n_ues, ...) from
    ``safe``, the state rates where connected and 1.0 elsewhere, which it
    leaves as they are."""
    # 1 / 1.0 where unconnected, so the product is np.where(conn, 1 / safe, 0.0).
    terms = np.divide(1.0, safe)
    terms *= conn
    load = _user_sum(terms.swapaxes(0, 1))[:, None]
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


def _station_stage(snr_state, tau, params: UtilityParams, reward_snr=None):
    """Per station-user pair, in kernel layout (n_bs, n_ues, ...):
    (delivered rate ``a_ij d_ij``, 0 where unconnected; connections).
    ``snr_state`` and ``reward_snr`` are kernel-layout views and ``tau`` is
    (n_bs, 1, ...).  Connections and allocations come from ``snr_state``;
    the rate terms are the state rates, or those of ``reward_snr`` when
    given.  Those are worked out only after the allocations, so fewer
    full-size arrays live at once."""
    conn = _connections(snr_state, tau)
    safe = np.where(conn, data_rate(snr_state, params.bandwidth), 1.0)
    delivered = _fractions(safe, conn)
    if reward_snr is None:
        # Where unconnected the fraction is 0.0 and safe 1.0, so the product
        # is the 0.0 a mask would give.
        delivered *= safe
        return delivered, conn
    del safe
    rates = data_rate(reward_snr, params.bandwidth)
    # A faded rate may be inf, and 0 * inf is NaN: mask instead.  Either
    # operand may broadcast over the other; the product goes into the one
    # of full shape.
    shape = np.broadcast(delivered, rates).shape
    out = delivered if delivered.shape == shape else rates if rates.shape == shape else None
    return np.where(conn, np.multiply(delivered, rates, out=out), 0.0), conn


def _user_stage(rate, n, params: UtilityParams):
    """(mean utility, per-user utilities) in kernel layout (n_ues, ...) from
    each user's delivered rate summed over stations and its number of
    serving stations, both float arrays of the caller's, which it
    overwrites."""
    if params.aggregate != "sum":
        # Mean over the serving stations; 0 when unserved: there every term
        # of the sum is the station stage's literal 0.0, so rate is +0.0
        # and dividing it by 1 keeps those bytes.
        rate /= np.maximum(n, 1.0, out=n)
    utils = _utility(rate, params)
    # numpy's mean is its sum divided by the count.
    return _user_sum(utils) / len(utils), utils


def reward_terms(snr_state, tau, params: UtilityParams, reward_snr=None):
    """Deterministic reward core: (mean utility, per-user utilities).

    Connections and allocations are derived from ``snr_state``; the rate
    terms use ``reward_snr`` when given (e.g. a faded matrix).  Leading batch
    axes broadcast through, so ``tau`` may be a batch of threshold vectors
    or ``reward_snr`` a batch of faded matrices.
    """
    nb = max(snr_state.ndim - 2, tau.ndim - 1,
             -1 if reward_snr is None else reward_snr.ndim - 2)
    if reward_snr is not None:
        reward_snr = _inward(reward_snr, 2, nb)
    delivered, conn = _station_stage(_inward(snr_state, 2, nb), _inward(tau, 1, nb)[:, None],
                                     params, reward_snr)
    # Stations in order, as action_rewards adds them; connections count as
    # 0.0 or 1.0.
    rate, n = delivered[0].copy(), conn[0] * 1.0
    for i in range(1, len(delivered)):
        rate += delivered[i]
        n += conn[i]
    mean, utils = _user_stage(rate, n, params)
    return mean, _outward(utils, 1)


def action_rewards(snr_state, taus, params: UtilityParams):
    """Fading-free ``reward_terms`` of every action code, bit for bit:
    (rewards (..., 3**n_bs), utilities (..., 3**n_bs, n_ues)).

    ``snr_state`` is (..., n_bs, n_ues) and ``taus`` (..., 3, n_bs), each
    station's threshold under the deltas -1, 0 and +1.  Codes are base-3
    with station 0 most significant, as ``env.decode_action`` reads them.
    """
    nb = max(snr_state.ndim - 2, taus.ndim - 2)
    # Kernel layout with the three digits as the first batch axis: state
    # SNRs (n_bs, n_ues, 1, ...) and thresholds (n_bs, 1, 3, ...).
    snr_state = _inward(snr_state, 2, nb)[:, :, None]
    taus = _inward(taus, 2, nb).swapaxes(0, 1)[:, None]
    # (2, n_bs, n_ues, 3, ...): delivered rates, and connections as 0.0 or
    # 1.0, whose sums count serving stations (bool + bool is logical or).
    terms = np.array(_station_stage(snr_state, taus, params), dtype=float)
    _, n_bs, n_ues, *lead = terms.shape
    sums = terms[:, 0]
    for i in range(1, n_bs):
        # Every partial code times 3 plus station i's digit, in station order.
        sums = (sums[:, :, :, None] + terms[:, i, :, None, :]).reshape(2, n_ues, -1, *lead[1:])
    mean, utils = _user_stage(*sums, params)
    return _outward(mean, 1), utils.transpose((*range(2, utils.ndim), 1, 0))


def reward(snr_state, tau, params: UtilityParams, reward_snr=None):
    """Step rewards of B episodes: (rewards (B,), per-user utilities (B, n_ues)).

    ``snr_state`` is (B, n_bs, n_ues) and ``tau`` (B, n_bs).  ``reward_snr``
    is the (B, n_bs, n_ues) faded SNR of every station-user pair, a slice of
    the faded rows ``EpisodeBatch.reset`` keeps, or None when fading is off.
    This is ``reward_terms`` on those arguments.
    """
    return reward_terms(snr_state, tau, params, reward_snr)


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


# Samples scored per reward_terms call: ~0.5 MB per (3, 5, chunk) array.  A
# 200000-sample pass of the four Jensen calls ran ~1% apart from 2048 to 8192
# and ~8% slower at 1024 and 16384 on one thread.  With two scoring threads
# each holds one chunk at most: a 200000-sample call peaks at 5.0-6.7 MiB of
# traced memory besides a Rician real block, against 3.4-4.1 MiB on one
# thread.  When a third chunk could be drawn ahead, 8192 ran 12-16% faster
# but peaked at 9.5-12.8 MiB, past test_peak_memory_bounded's 8, and 2048
# ran ~9% slower.
_JENSEN_CHUNK = 4096


def verify_jensen(snr, tau, fading: FadingModel, params: UtilityParams,
                  n_samples: int = 100_000, fixed_allocation: bool = True,
                  rng=None) -> JensenReport:
    """Check E[reward under fading] <= reward without fading by Monte Carlo.

    With ``fixed_allocation`` connections and allocations stay frozen at
    their state values (the regime in which the bound is a theorem) and the
    check asserts ``mean_R <= r + 3 std_R / sqrt(n)``.  Without it the whole
    pipeline is recomputed from every faded draw and the report is
    informational only.  ``snr`` must be a finite, non-negative
    (n_bs, n_ues) matrix with at least one user, ``tau`` one threshold in
    [0, 1] per station, ``fading`` a ``FadingModel`` and ``params`` a
    ``UtilityParams``.

    The ``n_samples`` fading blocks are the draw of one ``sample_fading``
    call, drawn in chunks of a few thousand samples in that call's order
    (``radio._fading_chunks``; a Rician real block is drawn whole, on the
    calling thread, before the first chunk), and scored chunk by chunk:
    amplitude transform, |H|^2 times the SNR, ``reward_terms``.  Each
    chunk's arrays stay in cache; only the per-sample rewards (and, for
    Rician, the real normals) grow with ``n_samples``.  With two or more
    usable CPUs the calling thread and one helper thread each take the next
    chunk, in order, and score it (``_score_chunks``); with one the calling
    thread takes and scores every chunk.  The mean and standard deviation
    run over all the rewards at once, after the last chunk, so the report
    depends neither on the chunk size nor on the thread count.
    """
    n_samples = _integer("n_samples", n_samples)
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10000")
    _check_type("fading", fading, FadingModel)
    _check_type("params", params, UtilityParams)
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 2:
        raise ValueError(f"SNR must be an (n_bs, n_ues) matrix, got shape {snr.shape}")
    if snr.shape[1] == 0:
        raise ValueError(f"SNR must have at least one user, got shape {snr.shape}")
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
    samples = np.empty(n_samples)
    transform = _rician if fading.kind == "rician" else _rayleigh

    def score(start, draws):
        # Built in kernel layout (n_bs, n_ues, chunk) and passed as a
        # (chunk, n_bs, n_ues) view, so reward_terms reads it contiguously.
        amplitude = transform(fading, *draws)
        faded = np.square(amplitude.transpose(1, 2, 0),
                          out=np.empty(snr.shape + amplitude.shape[:1]))
        faded *= snr[..., None]
        faded = faded.transpose(2, 0, 1)
        chunk = slice(start, start + len(faded))
        if fixed_allocation:
            samples[chunk] = reward_terms(snr, tau, params, reward_snr=faded)[0]
        else:
            samples[chunk] = reward_terms(faded, tau, params)[0]

    draws = _fading_chunks(fading, np.random.default_rng(rng), n_samples, snr.shape,
                           _JENSEN_CHUNK)
    _score_chunks(score, zip(range(0, n_samples, _JENSEN_CHUNK), draws),
                  min(2, _usable_cpus()))
    mean_r = float(samples.mean())
    std_r = float(samples.std())
    holds = mean_r <= r + 3.0 * std_r / math.sqrt(n_samples)
    return JensenReport(model=fading.label(), n_samples=n_samples,
                        fixed_allocation=fixed_allocation,
                        r=r, mean_R=mean_r, std_R=std_r, holds=bool(holds))


def _score_chunks(score, chunks, threads: int) -> None:
    """Call ``score(*chunk)`` for every chunk of the iterator ``chunks``.

    The calling thread and ``threads`` - 1 helper threads, started and
    joined here, run one loop: take the next chunk under a lock, score it,
    and stop when the iterator ends or a worker has recorded an error.  So
    each worker holds one chunk at most, and at most ``threads`` chunks exist
    at once.  Each helper runs in a copy of the caller's context, so that
    numpy's errstate, a context variable, holds there as it does here.
    Once an error is recorded each other worker takes at most one more
    chunk; after the helpers are joined the first error is raised here, the
    same object.
    """
    lock, errors = threading.Lock(), []

    def work():
        try:
            while not errors:
                with lock:
                    chunk = next(chunks, None)
                if chunk is None:
                    return
                score(*chunk)
                del chunk  # so that a chunk is freed before the next is taken
        except BaseException as exc:
            errors.append(exc)

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(work,))
               for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]


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
    x, y or their mix as the rate-term SNR.  ``params`` must be a
    ``UtilityParams``, ``n_trials`` and ``n_ues`` at least 1 and ``tau`` one
    threshold in [0, 1] per station.
    """
    _check_type("params", params, UtilityParams)
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
                           max_violation=float(gap.max()),
                           passed=violations == 0)
