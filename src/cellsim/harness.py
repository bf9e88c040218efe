"""Evaluation harness: policy scoring, score rescaling, and fading sweeps.

Evaluation runs a policy for a block of consecutive seeds and reports the
mean and population standard deviation of episode returns.  Fading sweeps
reuse the same seed block for every fading model (common random numbers):
mobility and policy streams are independent of the fading stream, so the
state-action sequences coincide across models and the return gaps isolate
the fading effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import FadingModel, NetworkConfig, _finite_real, _integer
from .data import _policy_epsilon, map_seeds, rollout

__all__ = ["EvalResult", "evaluate", "rescale", "SweepRow", "SweepReport", "fading_sweep"]


def _block_returns(cfg: NetworkConfig, policy, seeds) -> list:
    """Each episode's return in one lockstep block: its first return-to-go."""
    return rollout(cfg, policy, seeds, observe=False)[-1][:, 0].tolist()


@dataclass(frozen=True)
class EvalResult:
    policy_id: str
    n_episodes: int
    seed_base: int
    mean: float
    std: float
    returns: tuple

    def to_text(self) -> str:
        return (f"policy={self.policy_id} episodes={self.n_episodes}"
                f" seed_base={self.seed_base}\nmean={self.mean!r}\nstd={self.std!r}")


def evaluate(cfg: NetworkConfig, policy, n_episodes: int = 30, seed_base: int = 0,
             workers: int = 1) -> EvalResult:
    """Mean and population std of returns over seeds seed_base..+n-1."""
    return _evaluate_all([cfg], policy, n_episodes, seed_base, workers)[0]


def _evaluate_all(cfgs, policy, n_episodes: int, seed_base: int, workers: int) -> list:
    """``evaluate`` of each config on the same seeds, in one ``map_seeds`` call."""
    n_episodes, seed_base = _integer("n_episodes", n_episodes), _integer("seed_base", seed_base)
    if n_episodes < 1:
        raise ValueError("n_episodes must be positive")
    _policy_epsilon(policy)
    rets = map_seeds(_block_returns, [(cfg, policy, seed_base, n_episodes) for cfg in cfgs],
                     workers)
    results = []
    for start in range(0, len(rets), n_episodes):
        block = rets[start:start + n_episodes]
        arr = np.asarray(block, dtype=float)
        results.append(EvalResult(policy_id=policy.policy_id, n_episodes=n_episodes,
                                  seed_base=seed_base, mean=float(arr.mean()),
                                  std=float(arr.std()), returns=tuple(block)))
    return results


def _baseline_pair(expert_mean, random_mean) -> tuple:
    """The (expert, random) baseline means as floats.  A pair that is not
    two finite, distinct numbers raises ``ValueError``."""
    if not (_finite_real(expert_mean) and _finite_real(random_mean)):
        raise ValueError(f"baselines must be finite numbers, got expert {expert_mean!r} "
                         f"and random {random_mean!r}")
    if expert_mean == random_mean:
        raise ValueError("degenerate baselines: expert and random means coincide")
    return float(expert_mean), float(random_mean)


def rescale(mean: float, expert_mean: float, random_mean: float) -> float:
    """Map a raw mean return onto the 0-100 scale spanned by the random and
    expert baselines, which must be finite and distinct.  Unclipped, so
    scores may leave [0, 100]."""
    expert_mean, random_mean = _baseline_pair(expert_mean, random_mean)
    return 100.0 * (mean - random_mean) / (expert_mean - random_mean)


def _stochasticity_rank(model: FadingModel) -> float:
    # Higher rank = closer to the deterministic channel.
    if model.kind == "none":
        return math.inf
    if model.kind == "rician":
        return model.k_factor
    return 0.0  # rayleigh


@dataclass(frozen=True)
class SweepRow:
    policy_id: str
    fading: str
    mobility_variant: str
    n_episodes: int
    mean: float
    std: float
    score: float | None


@dataclass(frozen=True)
class SweepReport:
    """Per-model evaluation rows plus adjacent-pair ordering checks.

    ``pair_checks`` holds (less_stochastic, more_stochastic, gap, gap_sem,
    ok) tuples where gap = mean(less) - mean(more) and the SEM comes from
    the per-seed paired differences.  ``ordering_ok`` is the conjunction of
    the per-pair flags at a 2-SEM tolerance.
    """

    rows: tuple
    pair_checks: tuple
    ordering_ok: bool

    def to_csv(self) -> str:
        lines = ["policy_id,fading,mobility_variant,n_episodes,mean,std,score"]
        for row in self.rows:
            score = "" if row.score is None else repr(row.score)
            lines.append(f"{row.policy_id},{row.fading},{row.mobility_variant},"
                         f"{row.n_episodes},{row.mean!r},{row.std!r},{score}")
        return "\n".join(lines)


def fading_sweep(cfg: NetworkConfig, policy, models, n_episodes: int = 100,
                 seed_base: int = 0, baselines=None, workers: int = 1) -> SweepReport:
    """Evaluate one policy under several fading models on shared seeds,
    every model's seed blocks through one set of worker processes.

    ``baselines``, when given as (expert_mean, random_mean), adds a 0-100
    score column; a pair that ``rescale`` would refuse fails before any
    episode runs.  The ordering check sorts models from least to most
    stochastic (none, then descending Rician K, then Rayleigh) and flags any
    adjacent pair whose mean gap drops below -2 paired SEMs.  ``models``
    must name at least one fading model.
    """
    models = list(models)
    if not models:
        raise ValueError("models must name at least one fading model")
    if baselines is not None:
        baselines = _baseline_pair(*baselines)
    results = _evaluate_all([dc_replace(cfg, fading=model) for model in models], policy,
                            n_episodes, seed_base, workers)
    rows = []
    for model, res in zip(models, results):
        score = None if baselines is None else rescale(res.mean, *baselines)
        rows.append(SweepRow(policy_id=policy.policy_id, fading=model.label(),
                             mobility_variant=cfg.mobility.variant,
                             n_episodes=n_episodes, mean=res.mean, std=res.std,
                             score=score))
    order = sorted(range(len(models)),
                   key=lambda i: _stochasticity_rank(models[i]), reverse=True)
    checks = []
    for a, b in zip(order, order[1:]):
        less, more = results[a], results[b]
        diffs = np.asarray(less.returns) - np.asarray(more.returns)
        gap = float(diffs.mean())
        sem = float(diffs.std() / math.sqrt(len(diffs)))
        checks.append((models[a].label(), models[b].label(), gap, sem, gap >= -2.0 * sem))
    return SweepReport(rows=tuple(rows), pair_checks=tuple(checks),
                       ordering_ok=all(ok for *_, ok in checks))
