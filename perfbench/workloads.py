"""The three benchmark workloads, their fixed sizes, and their correctness checks.

cellsim is imported from ``<repo>/src`` by absolute path, so the benchmark
runs from any working directory and forked or spawned workers find the same
package.  Every workload derives all of its inputs from the ``--seed``
argument; sizes are constants because the golden values depend on them.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "cellsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no cellsim package under {SRC}")
sys.path.insert(0, str(SRC))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

import numpy as np  # noqa: E402

import cellsim as cs  # noqa: E402

if Path(cs.__file__).resolve().parent != SRC / "cellsim":
    sys.exit(f"perfbench: imported cellsim from {cs.__file__}, not {SRC}")

# Episodes per tier, episodes per evaluation, and Monte Carlo draws per
# verify_jensen call.  Each pass takes roughly one second on one core.
N_PER_TIER = 10
N_EVAL_EPISODES = 80
EVAL_WORKERS = 2
N_JENSEN_SAMPLES = 200_000
JENSEN_MODELS = ("rayleigh", "rician:3")


def config(workload: str):
    """Scenario of a workload: the default map, 100-step episodes."""
    if workload == "evaluate_random_faded":
        return cs.default_config(mobility_variant="limited", fading="rayleigh")
    return cs.default_config()


def seed_base(seed: int) -> int:
    """First episode seed of a pass; seed blocks of different runs do not overlap."""
    return 1000 * seed


def setup(workload: str, seed: int):
    """Set-up a user pays before any work: config and the first reset."""
    cfg = config(workload)
    cs.CellularNetworkEnv(cfg).reset(seed_base(seed))


def sizes(workload: str) -> dict:
    if workload == "collect_medium_expert":
        return {"n_per_tier": N_PER_TIER, "workers": 1}
    if workload == "evaluate_random_faded":
        return {"n_episodes": N_EVAL_EPISODES, "workers": EVAL_WORKERS}
    return {"n_samples": N_JENSEN_SAMPLES, "models": list(JENSEN_MODELS),
            "calls": 2 * len(JENSEN_MODELS)}


def jensen_inputs(seed: int):
    """Seeded 3x5 state SNR matrix and a threshold vector on the 0.1 grid."""
    rng = np.random.default_rng(seed)
    return rng.random((3, 5)), rng.integers(0, 6, size=3) / 10.0


class Checks:
    """Tally of correctness checks; a miss records its name and detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok, name: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


# -- collect_medium_expert ---------------------------------------------------


def collect_pass(cfg, seed: int, workdir: Path, clock) -> dict:
    """Collect the two-tier dataset, write it, load it back."""
    path = workdir / "dataset.jsonl"
    t0 = clock()
    manifest = cs.collect_medium_expert(cfg, N_PER_TIER, seed_base=seed_base(seed),
                                        workers=1)
    t1 = clock()
    digest = cs.write_dataset(manifest, path)
    t2 = clock()
    loaded = cs.load_dataset(path)
    t3 = clock()
    return {"collect_s": t1 - t0, "write_s": t2 - t1, "load_s": t3 - t2,
            "pass_s": t3 - t0, "episodes": 2 * N_PER_TIER,
            "bytes": path.stat().st_size, "key": digest, "loaded": loaded,
            "path": path}


def check_collect(out: dict, checks: Checks) -> None:
    """Round trip, reward range, and the exact return-to-go recurrence."""
    data = out["path"].read_bytes()
    rewritten = out["path"].with_name("rewritten.jsonl")
    cs.write_dataset(out["loaded"], rewritten)
    checks.check(rewritten.read_bytes() == data, "dataset.rewrite_identical")
    checks.check(hashlib.sha256(data).hexdigest() == out["key"], "dataset.digest_matches_file")
    trajs = out["loaded"].all_trajectories()
    checks.check(len(trajs) == 2 * N_PER_TIER, "dataset.trajectory_count", str(len(trajs)))
    rewards = np.concatenate([t.rewards for t in trajs])
    checks.check(bool(((rewards >= 0.0) & (rewards <= 1.0)).all()), "dataset.reward_in_unit",
                 f"min={rewards.min()!r} max={rewards.max()!r}")
    rtg_ok = all(t.returns_to_go[-1] == t.rewards[-1]
                 and all(t.returns_to_go[i] == t.rewards[i] + t.returns_to_go[i + 1]
                         for i in range(len(t) - 1))
                 for t in trajs)
    checks.check(rtg_ok, "dataset.rtg_recurrence")


# -- evaluate_random_faded ---------------------------------------------------


def evaluate_pass(cfg, seed: int, workers: int, clock) -> dict:
    """Score the random policy on a block of seeds."""
    t0 = clock()
    res = cs.evaluate(cfg, cs.RandomPolicy(), n_episodes=N_EVAL_EPISODES,
                      seed_base=seed_base(seed), workers=workers)
    t1 = clock()
    returns = [float(r) for r in res.returns]
    key = hashlib.sha256(json.dumps(returns).encode("ascii")).hexdigest()
    return {"pass_s": t1 - t0, "episodes": N_EVAL_EPISODES, "key": key,
            "result": res}


def check_evaluate(out: dict, checks: Checks, horizon: int) -> None:
    """Every per-step reward lies in [0, 1], so every return lies in [0, horizon]."""
    rets = np.asarray(out["result"].returns, dtype=float)
    checks.check(len(rets) == N_EVAL_EPISODES, "evaluate.episode_count", str(len(rets)))
    checks.check(bool(((rets >= 0.0) & (rets <= horizon)).all()), "evaluate.return_in_range",
                 f"min={rets.min()!r} max={rets.max()!r}")
    checks.check(out["result"].mean == float(rets.mean()), "evaluate.mean_of_returns")


# -- verify_jensen_mc --------------------------------------------------------


def jensen_pass(cfg, seed: int, clock) -> dict:
    """verify_jensen for each fading model, allocation fixed and recomputed."""
    snr, tau = jensen_inputs(seed)
    t0 = clock()
    reports = []
    for k, spec in enumerate(JENSEN_MODELS):
        model = cs.parse_fading(spec)
        for fixed in (True, False):
            reports.append(cs.verify_jensen(snr, tau, model, cfg.utility,
                                            n_samples=N_JENSEN_SAMPLES,
                                            fixed_allocation=fixed,
                                            rng=[seed, k, int(fixed)]))
    t1 = clock()
    return {"pass_s": t1 - t0, "samples": N_JENSEN_SAMPLES * len(reports),
            "key": json.dumps([rep.mean_R for rep in reports]), "reports": reports}


def check_jensen(out: dict, checks: Checks) -> None:
    """The bound holds with fixed allocation; every reward lies in [0, 1]."""
    for rep in out["reports"]:
        tag = f"{rep.model}/fixed={rep.fixed_allocation}"
        if rep.fixed_allocation:
            checks.check(rep.holds, "jensen.holds_when_fixed", tag)
        checks.check(0.0 <= rep.mean_R <= 1.0 and 0.0 <= rep.r <= 1.0,
                     "jensen.reward_in_unit", tag)
        checks.check(rep.n_samples == N_JENSEN_SAMPLES, "jensen.sample_count", tag)
