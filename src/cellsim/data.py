"""Trajectory collection, dataset files, ablation slicing, and statistics.

A dataset is a JSON Lines file, one trajectory per line:

    {"seed": ..., "policy_id": ..., "config_hash": ..., "total_return": ...,
     "steps": [{"t": ..., "obs": [...], "action": ..., "reward": ..., "rtg": ...}, ...]}

Numbers serialize as the shortest decimal that round-trips a 64-bit float,
so parse-then-serialize reproduces the file byte for byte.  A manifest
sidecar (``<file>.manifest.json``) records tier counts, return statistics,
and the SHA-256 of the data file; both files are written to temporary
files first and then moved into place, so a failed write leaves no partial
file behind.  Loading checks each record's returns-to-go and the sidecar's
digest against the bytes read.  Collection is deterministic: trajectory
k of a tier uses seed ``seed_base + k``, and worker-parallel collection
assembles results in seed order so the output is independent of the worker
count.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_MEDIUM_EPSILON, NetworkConfig
from .env import CellularNetworkEnv
from .policies import make_policy

__all__ = [
    "Trajectory",
    "DatasetManifest",
    "collect_trajectory",
    "collect",
    "collect_medium_expert",
    "ablate",
    "return_stats",
    "histogram_overlap",
    "write_dataset",
    "load_dataset",
]

_TIER_ORDER = ("expert", "medium", "random")


@dataclass
class Trajectory:
    """One complete episode: observations, actions, rewards, returns-to-go."""

    seed: int
    policy_id: str
    config_hash: str
    observations: np.ndarray  # (T, obs_dim)
    actions: np.ndarray       # (T,)
    rewards: np.ndarray       # (T,)
    returns_to_go: np.ndarray  # (T,)

    @property
    def total_return(self) -> float:
        return float(self.returns_to_go[0])

    def __len__(self) -> int:
        return len(self.actions)

    def to_record(self) -> dict:
        columns = zip(self.observations.tolist(), self.actions.tolist(),
                      self.rewards.tolist(), self.returns_to_go.tolist())
        steps = [{"t": t, "obs": obs, "action": a, "reward": r, "rtg": g}
                 for t, (obs, a, r, g) in enumerate(columns)]
        return {
            "seed": int(self.seed),
            "policy_id": self.policy_id,
            "config_hash": self.config_hash,
            "total_return": self.total_return,
            "steps": steps,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Trajectory":
        if not isinstance(rec, dict):
            raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
        steps = rec["steps"]
        if not steps:
            raise ValueError("trajectory record has no steps")
        traj = cls(
            seed=int(rec["seed"]),
            policy_id=rec["policy_id"],
            config_hash=rec["config_hash"],
            observations=np.array([s["obs"] for s in steps], dtype=float),
            actions=np.array([s["action"] for s in steps], dtype=np.int64),
            rewards=np.array([s["reward"] for s in steps], dtype=float),
            returns_to_go=np.array([s["rtg"] for s in steps], dtype=float),
        )
        if float(rec["total_return"]) != traj.total_return:
            raise ValueError(f"trajectory seed={traj.seed}: total_return does not "
                             "match its first return-to-go")
        if not np.array_equal(traj.returns_to_go, _returns_to_go(traj.rewards)):
            raise ValueError(f"trajectory seed={traj.seed}: returns-to-go are not "
                             "the reversed cumulative sum of the rewards")
        return traj


def _returns_to_go(rewards: np.ndarray) -> np.ndarray:
    """Sequential sum from the last step: rtg[t] == rewards[t] + rtg[t + 1] exactly."""
    return np.cumsum(rewards[::-1])[::-1].copy()


def collect_trajectory(cfg: NetworkConfig, policy, seed: int) -> Trajectory:
    """Run one full episode and package it with exact returns-to-go."""
    env = CellularNetworkEnv(cfg)
    obs = env.reset(seed)
    observations, actions, rewards = [], [], []
    done = False
    while not done:
        action = policy(env)
        next_obs, rew, done, _ = env.step(action)
        observations.append(obs)
        actions.append(action)
        rewards.append(rew)
        obs = next_obs
    rewards_arr = np.asarray(rewards, dtype=float)
    return Trajectory(seed=seed, policy_id=policy.policy_id,
                      config_hash=cfg.canonical_hash(),
                      observations=np.asarray(observations, dtype=float),
                      actions=np.asarray(actions, dtype=np.int64),
                      rewards=rewards_arr, returns_to_go=_returns_to_go(rewards_arr))


@dataclass
class DatasetManifest:
    """Trajectories grouped by tier plus provenance metadata."""

    tiers: dict
    config_hash: str
    meta: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def counts(self) -> dict:
        return {tier: len(trajs) for tier, trajs in self.tiers.items()}

    def total_steps(self) -> int:
        return sum(len(t) for trajs in self.tiers.values() for t in trajs)

    def tier_returns(self, tier: str) -> np.ndarray:
        return np.array([t.total_return for t in self.tiers.get(tier, ())])

    def all_trajectories(self) -> list:
        ordered = sorted(self.tiers, key=_tier_sort_key)
        return [t for tier in ordered for t in self.tiers[tier]]

    def summary_stats(self) -> dict:
        stats = {}
        for tier in sorted(self.tiers, key=_tier_sort_key):
            rets = self.tier_returns(tier)
            if len(rets) == 0:
                continue
            stats[tier] = {
                "n": int(len(rets)),
                "mean_return": float(rets.mean()),
                "std_return": float(rets.std()),
                "min_return": float(rets.min()),
                "max_return": float(rets.max()),
            }
        return stats

    def merge(self, other: "DatasetManifest") -> "DatasetManifest":
        if other.config_hash != self.config_hash:
            raise ValueError("cannot merge datasets with different config hashes")
        tiers = {tier: list(trajs) for tier, trajs in self.tiers.items()}
        for tier, trajs in other.tiers.items():
            tiers.setdefault(tier, []).extend(trajs)
        return DatasetManifest(tiers=tiers, config_hash=self.config_hash,
                               meta={**self.meta, **other.meta},
                               warnings=self.warnings + other.warnings)


def _tier_sort_key(tier: str):
    try:
        return (0, _TIER_ORDER.index(tier))
    except ValueError:
        return (1, tier)


def map_seeds(fn, cfg: NetworkConfig, policy, seed_base: int, n: int,
              workers: int) -> list:
    """``[fn(cfg, policy, seed_base + k) for k in range(n)]``, spread over a
    process pool when ``workers > 1`` and ``n > 1``; results stay in seed
    order, so they do not depend on the worker count."""
    seeds = range(seed_base, seed_base + n)
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, [cfg] * n, [policy] * n, seeds,
                                 chunksize=max(1, n // (workers * 4))))
    return [fn(cfg, policy, s) for s in seeds]


def collect(cfg: NetworkConfig, policy, n_traj: int, seed_base: int = 0,
            workers: int = 1) -> DatasetManifest:
    """Collect ``n_traj`` episodes of one policy; seeds are seed_base + k."""
    if n_traj < 0:
        raise ValueError("n_traj must be non-negative")
    trajs = map_seeds(collect_trajectory, cfg, policy, seed_base, n_traj, workers)
    meta = {"seed_ranges": {policy.policy_id: [seed_base, seed_base + n_traj]}}
    eps = getattr(policy, "epsilon", None)
    if eps is not None:
        meta["epsilon"] = eps
    return DatasetManifest(tiers={policy.policy_id: trajs},
                           config_hash=cfg.canonical_hash(), meta=meta)


def collect_medium_expert(cfg: NetworkConfig, n_per_tier: int, seed_base: int = 0,
                          epsilon: float = DEFAULT_MEDIUM_EPSILON,
                          workers: int = 1) -> DatasetManifest:
    """The default two-tier dataset: n expert episodes on seeds
    [seed_base, seed_base + n) and n medium episodes on the next n seeds."""
    expert = collect(cfg, make_policy("expert"), n_per_tier, seed_base, workers)
    medium = collect(cfg, make_policy("medium", epsilon=epsilon), n_per_tier,
                     seed_base + n_per_tier, workers)
    merged = expert.merge(medium)
    merged.meta["seed_ranges"] = {
        "expert": [seed_base, seed_base + n_per_tier],
        "medium": [seed_base + n_per_tier, seed_base + 2 * n_per_tier],
    }
    return merged


def ablate(manifest: DatasetManifest, drop_expert: float = 0.0,
           drop_medium: float = 0.0, seed: int = 0) -> DatasetManifest:
    """Drop a seeded uniform sample of trajectories from the named tiers.

    The surviving count per tier is round((1 - frac) * n) and survivors keep
    their original order.  Dropping from a tier that is absent or empty is a
    no-op recorded in the manifest warnings; dropping nothing at all returns
    an identical manifest.
    """
    fracs = {"expert": float(drop_expert), "medium": float(drop_medium)}
    for tier, frac in fracs.items():
        if not 0.0 <= frac <= 1.0:
            raise ValueError(f"drop fraction for {tier} must lie in [0, 1]")
    if all(f == 0.0 for f in fracs.values()):
        return DatasetManifest(tiers={t: list(v) for t, v in manifest.tiers.items()},
                               config_hash=manifest.config_hash,
                               meta=copy.deepcopy(manifest.meta),
                               warnings=list(manifest.warnings))
    rng = np.random.default_rng(seed)
    tiers = {t: list(v) for t, v in manifest.tiers.items()}
    warnings = list(manifest.warnings)
    for tier in ("expert", "medium"):  # fixed order keeps the draws stable
        frac = fracs[tier]
        if frac == 0.0:
            continue
        trajs = tiers.get(tier)
        if not trajs:
            warnings.append(f"ablation requested on empty tier {tier!r}; no-op")
            continue
        n = len(trajs)
        n_keep = round((1.0 - frac) * n)
        drop_idx = set(rng.choice(n, size=n - n_keep, replace=False).tolist())
        tiers[tier] = [t for i, t in enumerate(trajs) if i not in drop_idx]
    meta = copy.deepcopy(manifest.meta)
    meta["ablation"] = {"drop_expert": fracs["expert"], "drop_medium": fracs["medium"],
                        "seed": int(seed), "parent_counts": manifest.counts()}
    return DatasetManifest(tiers=tiers, config_hash=manifest.config_hash,
                           meta=meta, warnings=warnings)


def return_stats(manifest: DatasetManifest, bins: int = 30) -> dict:
    """Per-tier return statistics with histograms over the pooled range."""
    if bins < 1:
        raise ValueError("bins must be positive")
    summary = manifest.summary_stats()
    if not summary:
        return {"bin_edges": [], "tiers": {}}
    edges = np.histogram_bin_edges(
        np.concatenate([manifest.tier_returns(t) for t in summary]), bins=bins)
    tiers = {}
    for tier, stats in summary.items():
        hist, _ = np.histogram(manifest.tier_returns(tier), bins=edges)
        tiers[tier] = {**{k.removesuffix("_return"): v for k, v in stats.items()},
                       "histogram": hist.tolist()}
    return {"bin_edges": edges.tolist(), "tiers": tiers}


def histogram_overlap(stats: dict, tier_a: str, tier_b: str) -> float:
    """Shared probability mass of two tiers' return histograms in [0, 1]."""
    tiers = stats["tiers"]
    ha = np.asarray(tiers[tier_a]["histogram"], dtype=float)
    hb = np.asarray(tiers[tier_b]["histogram"], dtype=float)
    return float(np.minimum(ha / ha.sum(), hb / hb.sum()).sum())


@contextlib.contextmanager
def _staged(path: str, mode: str, **kwargs):
    """A new temporary file beside ``path``, moved onto ``path`` when the
    block completes and removed if it raises."""
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        fh = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_dataset(manifest: DatasetManifest, path) -> str:
    """Write the JSONL data file and its manifest sidecar; returns the
    SHA-256 hex digest of the data file.  Neither target is touched unless
    both files were written in full."""
    path = str(path)
    digest = hashlib.sha256()
    with (_staged(path, "xb") as data_fh,
          _staged(path + ".manifest.json", "x", encoding="utf-8") as sidecar_fh):
        for traj in manifest.all_trajectories():
            line = json.dumps(traj.to_record(), separators=(",", ":")).encode("utf-8")
            data_fh.write(line + b"\n")
            digest.update(line + b"\n")
        sidecar = {
            "config_hash": manifest.config_hash,
            "counts": manifest.counts(),
            "stats": manifest.summary_stats(),
            "meta": manifest.meta,
            "warnings": manifest.warnings,
            "data_sha256": digest.hexdigest(),
        }
        json.dump(sidecar, sidecar_fh, indent=2, sort_keys=True)
        sidecar_fh.write("\n")
    return digest.hexdigest()


def load_dataset(path) -> DatasetManifest:
    """Read a JSONL dataset back into a manifest.

    Tier membership comes from each line's policy_id; all lines must carry
    the same config hash.  A malformed line raises ``ValueError`` naming its
    1-based line number.  The sidecar, when present, restores metadata; its
    ``meta`` must be an object, its ``warnings`` a list of strings, and its
    ``data_sha256`` the digest of the data file.
    """
    path = str(path)
    tiers: dict = {}
    config_hash = None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            digest.update(line)
            line = line.strip()
            if not line:
                continue
            try:
                traj = Trajectory.from_record(json.loads(line))
                if config_hash is None:
                    config_hash = traj.config_hash
                elif traj.config_hash != config_hash:
                    raise ValueError("dataset mixes trajectories from different configs")
            except KeyError as exc:
                raise ValueError(f"{path} line {lineno}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            tiers.setdefault(traj.policy_id, []).append(traj)
    if config_hash is None:
        raise ValueError(f"dataset {path} is empty")
    try:
        with open(path + ".manifest.json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except FileNotFoundError:
        sidecar = {}
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}.manifest.json: expected a JSON object")
    meta, warnings = sidecar.get("meta", {}), sidecar.get("warnings", [])
    if not isinstance(meta, dict):
        raise ValueError(f"{path}.manifest.json: meta must be a JSON object")
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValueError(f"{path}.manifest.json: warnings must be a list of strings")
    if sidecar.get("data_sha256", digest.hexdigest()) != digest.hexdigest():
        raise ValueError(f"{path}.manifest.json: data_sha256 does not match {path}")
    return DatasetManifest(tiers=tiers, config_hash=config_hash, meta=meta,
                           warnings=warnings)
