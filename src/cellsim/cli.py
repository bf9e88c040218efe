"""Command line interface.

Subcommands: simulate, collect, ablate, stats, evaluate, verify,
sweep-fading, show-config.  Scenario settings come from an optional JSON
config file (built-in defaults otherwise) with individual flags winning
over the file.  Every subcommand is reproducible from its flags alone.

Exit codes: 0 success, 1 domain error (bad config, bad data file), 2 usage
error.  Domain errors are the ``ValueError``, ``RuntimeError`` and ``OSError``
raised at the boundaries, and the ``MemoryError`` of a count too large to
allocate (``--samples``, ``--trials``, ``--bins``); any other exception is
a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace

import numpy as np

from . import data as data_mod
from . import harness, mac
from .config import DEFAULT_MEDIUM_EPSILON, _checked, default_config, load_config, parse_fading
from .policies import make_policy

_POLICY_CHOICES = ("expert", "medium", "random")


def _add_config_flags(sub, mobility=True, fading=True):
    sub.add_argument("--config", metavar="F", default=None,
                     help="scenario config JSON (defaults used when omitted)")
    if mobility:
        sub.add_argument("--mobility", choices=("full", "limited"), default=None,
                         help="override the mobility variant")
    if fading:
        sub.add_argument("--fading", metavar="MODEL", default=None,
                         help="override fading: none, rayleigh, or rician:K")


def _baselines(args):
    """(expert mean, random mean), None when neither flag is given; one flag
    alone is a usage error, and a pair that is not finite and distinct a
    domain error, both before any episode runs."""
    pair = (args.baseline_expert, args.baseline_random)
    if pair.count(None) == 1:
        given, missing = ("expert", "random") if pair[1] is None else ("random", "expert")
        args.baseline_parser.error(f"--baseline-{given} requires --baseline-{missing}")
    return None if None in pair else harness._baseline_pair(*pair)


def _resolve_config(args, horizon=None):
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "mobility", None):
        cfg = dc_replace(cfg, mobility=dc_replace(cfg.mobility, variant=args.mobility))
    if getattr(args, "fading", None):
        cfg = dc_replace(cfg, fading=parse_fading(args.fading))
    if horizon is not None:
        cfg = dc_replace(cfg, horizon=horizon)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellsim",
        description="Multi-cell association-threshold simulator and dataset tools")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("simulate", help="run one episode and print per-step rewards")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=None,
                   help="episode length (overrides the config horizon)")
    p.add_argument("--policy", choices=_POLICY_CHOICES, default="expert")
    p.add_argument("--epsilon", type=float, default=DEFAULT_MEDIUM_EPSILON)

    p = subs.add_parser("collect", help="collect trajectories into a JSONL dataset")
    _add_config_flags(p)
    p.add_argument("--tier", choices=_POLICY_CHOICES + ("medium-expert",),
                   required=True)
    p.add_argument("--n", type=int, required=True,
                   help="trajectories to collect (per tier for medium-expert)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--out", metavar="FILE", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_MEDIUM_EPSILON)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = subs.add_parser("ablate", help="drop a seeded sample of trajectories per tier")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True)
    p.add_argument("--drop-expert", type=float, default=0.0)
    p.add_argument("--drop-medium", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", required=True)

    p = subs.add_parser("stats", help="print per-tier return statistics of a dataset")
    p.add_argument("--in", dest="infile", metavar="FILE", required=True)
    p.add_argument("--bins", type=int, default=30)

    p = subs.add_parser("evaluate", help="evaluate a policy over a block of seeds")
    _add_config_flags(p)
    p.add_argument("--policy", choices=_POLICY_CHOICES, required=True)
    p.add_argument("--episodes", type=int, default=30)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_MEDIUM_EPSILON)
    p.add_argument("--baseline-expert", type=float, default=None)
    p.add_argument("--baseline-random", type=float, default=None)
    p.set_defaults(baseline_parser=p)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = subs.add_parser("verify", help="check the fading reward bound and concavity")
    _add_config_flags(p, mobility=False, fading=False)
    p.add_argument("--fading", metavar="MODEL", required=True,
                   help="none, rayleigh, or rician:K")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--fixed-allocation", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000,
                   help="concavity probe trials")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = subs.add_parser("sweep-fading", help="evaluate one policy under several "
                                             "fading models on shared seeds")
    _add_config_flags(p, fading=False)
    p.add_argument("--policy", choices=_POLICY_CHOICES, required=True)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_MEDIUM_EPSILON)
    p.add_argument("--models", default="none,rician:10,rician:3,rayleigh",
                   help="comma-separated fading specs")
    p.add_argument("--baseline-expert", type=float, default=None)
    p.add_argument("--baseline-random", type=float, default=None)
    p.set_defaults(baseline_parser=p)
    p.add_argument("--workers", type=int, default=1)

    p = subs.add_parser("show-config", help="print the effective config as JSON")
    _add_config_flags(p)

    return parser


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args, horizon=args.steps)
    policy = make_policy(args.policy, epsilon=args.epsilon)
    traj = data_mod.collect_trajectory(cfg, policy, args.seed)
    for t, (action, rew) in enumerate(zip(traj.actions.tolist(), traj.rewards.tolist())):
        print(f"t={t} action={action} reward={rew!r}")
    print(f"total_return={traj.total_return!r}")
    return 0


def _cmd_collect(args) -> int:
    cfg = _resolve_config(args, horizon=args.horizon)
    _checked("--n", args.n, "int", low=1)
    if args.tier == "medium-expert":
        manifest = data_mod.collect_medium_expert(cfg, args.n, args.seed_base,
                                                  epsilon=args.epsilon,
                                                  workers=args.workers)
    else:
        policy = make_policy(args.tier, epsilon=args.epsilon)
        manifest = data_mod.collect(cfg, policy, args.n, args.seed_base,
                                    workers=args.workers)
    digest = data_mod.write_dataset(manifest, args.out)
    for tier, n in manifest.counts().items():
        print(f"tier={tier} trajectories={n}")
    print(f"total steps: {manifest.total_steps()}")
    print(f"sha256={digest}")
    return 0


def _cmd_ablate(args) -> int:
    manifest = data_mod.load_dataset(args.infile)
    out = data_mod.ablate(manifest, drop_expert=args.drop_expert,
                          drop_medium=args.drop_medium, seed=args.seed)
    digest = data_mod.write_dataset(out, args.out)
    for warning in out.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    for tier, n in out.counts().items():
        print(f"tier={tier} trajectories={n}")
    print(f"sha256={digest}")
    return 0


def _cmd_stats(args) -> int:
    manifest = data_mod.load_dataset(args.infile)
    stats = data_mod.return_stats(manifest, bins=args.bins)
    for tier, s in stats["tiers"].items():
        print(f"tier={tier} n={s['n']} mean={s['mean']!r} std={s['std']!r} "
              f"min={s['min']!r} max={s['max']!r}")
    print(f"total steps: {manifest.total_steps()}")
    edges = stats["bin_edges"]
    print(f"histogram bins={args.bins} range=[{edges[0]!r}, {edges[-1]!r}]")
    for tier, s in stats["tiers"].items():
        print(f"{tier} | " + " ".join(str(c) for c in s["histogram"]))
    return 0


def _cmd_evaluate(args) -> int:
    baselines = _baselines(args)
    cfg = _resolve_config(args, horizon=args.horizon)
    policy = make_policy(args.policy, epsilon=args.epsilon)
    res = harness.evaluate(cfg, policy, n_episodes=args.episodes,
                           seed_base=args.seed_base, workers=args.workers)
    print(res.to_text())
    if baselines is not None:
        print(f"score={harness.rescale(res.mean, *baselines)!r}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    model = parse_fading(args.fading)
    _checked("seed", args.seed, "int", low=0)
    rng = np.random.default_rng(args.seed)
    snr = rng.random((cfg.n_bs, cfg.n_ues))
    tau = rng.random(cfg.n_bs)
    # The probe runs first, so a bad --trials fails before the Monte Carlo
    # (--samples is checked as that starts); each has its own generator.
    probe = mac.concavity_probe(cfg.utility, tau, n_trials=args.trials,
                                rng=np.random.default_rng(args.seed + 2),
                                n_ues=cfg.n_ues)
    report = mac.verify_jensen(snr, tau, model, cfg.utility,
                               n_samples=args.samples,
                               fixed_allocation=args.fixed_allocation,
                               rng=np.random.default_rng(args.seed + 1))
    print(report.to_csv() if args.format == "csv" else report.to_text())
    print(probe.to_text())
    return 0


def _cmd_sweep_fading(args) -> int:
    baselines = _baselines(args)
    cfg = _resolve_config(args)
    policy = make_policy(args.policy, epsilon=args.epsilon)
    models = [parse_fading(m) for m in args.models.split(",") if m.strip()]
    report = harness.fading_sweep(cfg, policy, models, n_episodes=args.episodes,
                                  seed_base=args.seed_base, baselines=baselines,
                                  workers=args.workers)
    print(report.to_csv())
    print(f"ordering_ok={report.ordering_ok}")
    return 0


def _cmd_show_config(args) -> int:
    cfg = _resolve_config(args)
    print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "collect": _cmd_collect,
    "ablate": _cmd_ablate,
    "stats": _cmd_stats,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
    "sweep-fading": _cmd_sweep_fading,
    "show-config": _cmd_show_config,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
