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
k of a tier uses seed ``seed_base + k``.  Seeds run in contiguous blocks,
each block's episodes stepped together in lockstep (``EpisodeBatch``).  One
generator runs the blocks, spread over the calling process and any forked
workers, and yields their results block by block in seed order, so the
output is independent of the worker count and block size.  The two tiers
of ``collect_medium_expert`` run as one seed range, so one block may hold
episodes of both: they share each step's preview, and each keeps its own
tier's decision rule and its own streams.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import json
import os
import pickle
import uuid
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .config import DEFAULT_MEDIUM_EPSILON, NetworkConfig, _checked, _usable_cpus
from .env import EpisodeBatch, _action_code
from .policies import make_policy

__all__ = [
    "Trajectory",
    "DatasetManifest",
    "collect_trajectory",
    "collect",
    "collect_medium_expert",
    "ablate",
    "return_stats",
    "write_dataset",
    "load_dataset",
]

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
        """Read a record as written: the seed, each ``t`` and each action are
        JSON integers, ``t`` counts the steps, ``policy_id`` and
        ``config_hash`` are strings, every other value is a number, and the
        observations are rows of equal, non-zero length."""
        if not isinstance(rec, dict):
            raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
        steps = rec["steps"]
        if not steps:
            raise ValueError("trajectory record has no steps")
        for key, kind, noun in (("seed", int, "an integer"), ("policy_id", str, "a string"),
                                ("config_hash", str, "a string")):
            if type(rec[key]) is not kind:
                raise ValueError(f"{key} {rec[key]!r} is not {noun}")
        for t, step in enumerate(steps):
            if type(step["t"]) is not int or step["t"] != t:
                raise ValueError(f"step {t} has t={step['t']!r}")
        obs, actions, rewards, rtg = ([s[key] for s in steps]
                                      for key in ("obs", "action", "reward", "rtg"))
        if set(map(type, actions)) != {int}:
            raise ValueError("every action must be an integer")
        values = chain(chain.from_iterable(obs), rewards, rtg, (rec["total_return"],))
        if not set(map(type, values)) <= {float, int}:
            raise ValueError("obs, reward, rtg and total_return must be numbers")
        traj = cls(
            seed=rec["seed"],
            policy_id=rec["policy_id"],
            config_hash=rec["config_hash"],
            observations=np.array(obs, dtype=float),
            actions=np.array(actions, dtype=np.int64),
            rewards=np.array(rewards, dtype=float),
            returns_to_go=np.array(rtg, dtype=float),
        )
        if traj.observations.shape[1] == 0:
            raise ValueError("obs rows are empty")
        if rec["total_return"] != traj.total_return:
            raise ValueError(f"trajectory seed={traj.seed}: total_return does not "
                             "match its first return-to-go")
        if not np.array_equal(traj.returns_to_go, _returns_to_go(traj.rewards)):
            raise ValueError(f"trajectory seed={traj.seed}: returns-to-go are not "
                             "the reversed cumulative sum of the rewards")
        return traj


def _returns_to_go(rewards: np.ndarray) -> np.ndarray:
    """Sequential sum from the last step along the last axis:
    rtg[..., t] == rewards[..., t] + rtg[..., t + 1] exactly."""
    return np.cumsum(rewards[..., ::-1], axis=-1)[..., ::-1].copy()


def _check_codes(codes, n_actions: int) -> None:
    """Raise as ``env._action_code`` does for the first entry of ``codes``,
    in row-major order, that is not an integer in [0, n_actions)."""
    for a in codes.ravel().tolist():
        _action_code(a, n_actions)


def rollout(cfg: NetworkConfig, policy, seeds, observe: bool = True):
    """Run one episode per seed in lockstep under ``policy``.

    Returns (observations, actions, rewards, returns-to-go), episode-major:
    (B, T, obs_dim) (None unless ``observe``), then three (B, T) arrays.
    The steps only move thresholds; after the last one, ``score`` scores
    every row in step order, reset's row 0 included, 16 rows per
    ``mac.reward`` call, and the observations are built in one pass.
    A step's codes that are not one per episode, shape (B,), raise
    ``ValueError`` at that step.  Action codes that are not integers
    (floats, bools) raise ``TypeError`` at their step, before they are
    cast; codes outside [0, n_actions)
    raise ``ValueError`` after the last step, before any row is scored.
    Until then ``EpisodeBatch.step`` clips them: such a code moves the
    thresholds as the nearest valid code, never as a wrapped one.
    """
    batch = EpisodeBatch(cfg)
    batch.reset(seeds)
    actions = np.empty((len(seeds), cfg.horizon), dtype=np.int64)
    for t in range(cfg.horizon):
        codes = np.asarray(policy.act(batch))
        if codes.shape != actions.shape[:1]:
            raise ValueError(f"policy returned action codes of shape {codes.shape} at step {t}"
                             f" for a block of {len(seeds)} episodes; need one per episode")
        if codes.dtype.kind not in "iu":
            _check_codes(codes, cfg.n_actions)
        actions[:, t] = codes
        batch.step(actions[:, t])
    # One range test per block, in step order: as unsigned, a negative code
    # is huge.
    if np.maximum.reduce(actions.view(np.uint64), axis=None) >= cfg.n_actions:
        _check_codes(actions.T, cfg.n_actions)
    batch.score()
    observations = batch.observations(0, cfg.horizon) if observe else None
    rewards = np.ascontiguousarray(batch._rewards[1:].T)
    return observations, actions, rewards, _returns_to_go(rewards)


def _trajectories(cfg: NetworkConfig, policy, seeds, policy_ids) -> list:
    """One trajectory per seed, the whole block stepped in lockstep under
    ``policy``, each labelled with its entry of ``policy_ids``."""
    config_hash = cfg.canonical_hash()
    # One row of each (B, T, ...) array per episode, in Trajectory field order.
    return [Trajectory(seed, policy_id, config_hash, *columns)
            for seed, policy_id, *columns in zip(seeds, policy_ids,
                                                 *rollout(cfg, policy, seeds))]


def _collect_block(cfg: NetworkConfig, policy, seeds) -> list:
    """One trajectory of ``policy`` per seed, in one lockstep block."""
    return _trajectories(cfg, policy, seeds, [policy.policy_id] * len(seeds))


class _ExpertThenMedium:
    """Acts on a block whose first ``n_expert`` episodes are expert ones and
    whose others are medium ones: one preview serves both tiers, and each
    tier keeps its own decision rule."""

    def __init__(self, expert, medium, n_expert: int):
        self.expert, self.medium, self.n_expert = expert, medium, n_expert

    def act(self, batch) -> np.ndarray:
        return self.medium._coins(batch, self.expert.act(batch), self.n_expert)


def _collect_two_tier_block(cfg: NetworkConfig, tiers, seeds) -> list:
    """One trajectory per seed of a block of ``collect_medium_expert``'s seed
    range, ``tiers = (expert, medium, mid)``: seeds below ``mid`` are expert
    episodes, the others medium ones."""
    expert, medium, mid = tiers
    n_expert = min(max(mid - seeds[0], 0), len(seeds))
    policy_ids = ([expert.policy_id] * n_expert
                  + [medium.policy_id] * (len(seeds) - n_expert))
    return _trajectories(cfg, _ExpertThenMedium(expert, medium, n_expert), seeds, policy_ids)


def collect_trajectory(cfg: NetworkConfig, policy, seed: int) -> Trajectory:
    """Run one full episode and package it with exact returns-to-go."""
    _policy_epsilon(policy)
    return _collect_block(cfg, policy, (_checked("seed", seed, "int", low=0),))[0]


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
        return [t for tier in sorted(self.tiers) for t in self.tiers[tier]]

    def summary_stats(self) -> dict:
        stats = {}
        for tier in sorted(self.tiers):
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


# Most episodes stepped together in one block.  Each preview builds
# (B, 3, n_bs, n_ues) station temporaries and per-user sums of up to
# (B, n_actions, n_ues) (one preview peaks at 588 KiB of temporaries at
# B=128 on the default map, under tracemalloc), and a block holds every
# episode's SNR matrices for the whole horizon and its thresholds, rewards
# and utilities (about 12 KB and 7 KB per 100-step episode, 2.5 MB at
# B=128), plus as much again as the SNR for faded SNRs when faded, so memory
# grows with B; the positions and the waypoint route (about 8 KB each)
# live only through reset, and the faded SNRs only until the last row is
# scored.  Scoring takes 16 rows per reward call: a faded 100-step random
# block at B=128 holds 4.1 MiB before it, peaks at 4.9 MiB in it and holds
# 2.6 MiB after it (reset peaks at 4.0 MiB), under tracemalloc; a faded
# expert block at B=128 peaks at 5.1 MiB, as a fading-free one does, while
# it builds the observations.
# At ``workers`` > 1 the calling process runs one share of the blocks, so it
# holds one block on top of every result gathered so far.
# The time per 100-step expert episode still falls up to B=128 (best of 5
# on a 2-core host: 11.2, 3.2, 1.9, 1.5 and 1.1 ms at B=1, 4, 10, 32 and
# 128) and by less than a tenth beyond it.  The default 500-per-tier
# protocol, 1000 seeds in one range, already runs near the cap (eight blocks
# of 125 at one worker and at two), so a larger cap would hold more memory
# for little gain.
CAP = 128


def map_seeds(fn, jobs, workers: int) -> list:
    """One result per seed of each ``(cfg, policy, seed_base, n)`` job, job
    after job, each job's seeds seed_base..seed_base+n-1 in seed order.

    Each job's n seeds are cut into at most ``count = workers * ceil(n /
    (workers * CAP))`` contiguous blocks of ``ceil(n / count)`` seeds, as
    large and as even as ``CAP`` and the worker count allow: up to ``workers
    * CAP`` seeds that is ``ceil(n / workers)`` per block, and beyond it no
    share ends in a short remainder block.  ``fn(cfg, policy, block)``
    returns one result per seed of its block.  Every block runs through
    one generator, ``_block_results``, which yields each block's results in
    block order.  With ``w = min(workers, blocks, usable CPUs)``, or ``w =
    1`` where ``os.fork`` does not exist, the blocks of every job are dealt
    round-robin to ``w`` shares: share k runs blocks k, k + w, k + 2w, ...
    The calling process runs share 0 itself, and ``w - 1`` processes forked
    once per call run the others, each pickling a block's results back
    through a pipe as it ends; at ``w = 1`` the calling process runs every
    block and nothing is forked.  Forking copies the caller, so ``fn`` and
    the jobs need not pickle; the results must.  An exception a worker's
    block raises is raised again in the caller, with the worker's traceback
    as its cause, and one raised in the caller's own block propagates as it
    is (but a ``StopIteration``, from either, becomes the ``RuntimeError``
    any generator raises for it); a worker that dies without sending its
    results raises ``RuntimeError`` naming the worker and its exit status.
    Either way no worker process and no pipe outlives the call.  Results do
    not depend on the worker count, the CPU count or the block size.
    """
    workers = _checked("workers", workers, "int", low=1)
    blocks = []  # (cfg, policy, block)
    for cfg, policy, seed_base, n in jobs:
        count = workers * -(-n // (workers * CAP))
        size = -(-n // count) if n else 1
        end = seed_base + n
        blocks += [(cfg, policy, range(s, min(s + size, end)))
                   for s in range(seed_base, end, size)]
    w = min(workers, len(blocks), _usable_cpus()) if hasattr(os, "fork") else 1
    with contextlib.closing(_block_results(fn, blocks, w)) as results:
        return [r for block in results for r in block]


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def _block_results(fn, blocks, w: int):
    """Yield ``fn(*block)`` for each block, in block order: share k =
    ``blocks[k::w]`` is run by the consumer's own process for k = 0, as the
    generator reaches each of its blocks, and by forked child k for k =
    1..w-1; see ``map_seeds``.  At ``w`` = 1 every block runs in the
    consumer's process and nothing is forked.  Every child is killed and
    reaped when the generator ends, raises or is closed, so a consumer that
    may stop early holds it in ``contextlib.closing``."""
    readers, pids = {}, {}  # worker -> pipe read end; worker -> pid not yet reaped
    try:
        if w > 1:
            # Every block resets episodes, which needs numpy.random: loaded
            # here once, the workers inherit it instead of each importing it.
            from . import _streams  # noqa: F401
        for k in range(1, w):
            r, wr = os.pipe()
            readers[k] = open(r, "rb")
            try:
                pids[k] = os.fork()
                if pids[k] == 0:
                    _serve(fn, blocks[k::w], wr)
            finally:
                # Only the child may hold the write end, or its pipe never
                # reaches EOF if it dies.
                os.close(wr)
        # Block i is the caller's own when i % w == 0, else the next message
        # on pipe i % w, so each worker waits only for the caller to take its
        # previous block.
        for i, block in enumerate(blocks):
            k = i % w
            if k == 0:
                yield fn(*block)
                continue
            try:
                ok, value = pickle.load(readers[k])
            except (EOFError, pickle.UnpicklingError):  # empty or cut short
                raise RuntimeError(f"worker {k} exited with status {_reap(pids, k)} "
                                   "without a result") from None
            if not ok:
                exc, tb = value
                raise exc from _WorkerTraceback(tb)
            yield value
        for k in range(1, w):
            code = _reap(pids, k)
            if code != 0:
                raise RuntimeError(f"worker {k} exited with status {code}")
    finally:
        for reader in readers.values():
            reader.close()
        if pids:
            import signal  # loaded only when a worker must be stopped
            for pid in pids.values():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _reap(pids: dict, k: int) -> int:
    """Wait for worker k; its exit status, or minus the signal that killed it."""
    status = os.waitpid(pids[k], 0)[1]
    del pids[k]
    return os.waitstatus_to_exitcode(status)


def _serve(fn, share, wr: int):
    """In a forked child: run ``share`` block by block, pickling ``(True,
    results)`` for each, or ``(False, (exception, traceback text))`` for the
    first that raises, into the pipe ``wr``; then exit, with status 0 only
    once every message is written.  Never returns."""
    code = 1
    try:
        with open(wr, "wb") as pipe:
            for block in share:
                try:
                    payload = (True, fn(*block))
                except BaseException as exc:  # raised again in the parent
                    import traceback
                    payload = (False, (exc, "".join(traceback.format_exception(exc))))
                pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                pipe.flush()
                if not payload[0]:
                    break
        code = 0
    finally:
        os._exit(code)


def _policy_epsilon(policy):
    """``policy``'s ``epsilon`` as a checked Python float, or None when it has
    none.  Callers check it before any episode runs: it may have been set
    after the policy was built, past ``MediumPolicy``'s own check."""
    if not hasattr(policy, "epsilon"):
        return None
    return _checked("epsilon", policy.epsilon, "float", low=0, high=1)


def collect(cfg: NetworkConfig, policy, n_traj: int, seed_base: int = 0,
            workers: int = 1) -> DatasetManifest:
    """Collect ``n_traj`` episodes of one policy; seeds are seed_base + k."""
    n_traj = _checked("n_traj", n_traj, "int", low=0)
    seed_base = _checked("seed_base", seed_base, "int", low=0)
    meta = {"seed_ranges": {policy.policy_id: [seed_base, seed_base + n_traj]}}
    eps = _policy_epsilon(policy)
    if eps is not None:
        meta["epsilon"] = eps
    trajs = map_seeds(_collect_block, [(cfg, policy, seed_base, n_traj)], workers)
    return DatasetManifest(tiers={policy.policy_id: trajs},
                           config_hash=cfg.canonical_hash(), meta=meta)


def collect_medium_expert(cfg: NetworkConfig, n_per_tier: int, seed_base: int = 0,
                          epsilon: float = DEFAULT_MEDIUM_EPSILON,
                          workers: int = 1) -> DatasetManifest:
    """The default two-tier dataset: n expert episodes on seeds
    [seed_base, seed_base + n) and n medium episodes on the next n seeds.
    Both tiers run as one seed range, expert seeds first, so a block may
    hold episodes of both tiers; each episode is the same as in a block of
    its own tier alone."""
    n_per_tier = _checked("n_per_tier", n_per_tier, "int", low=0)
    seed_base = _checked("seed_base", seed_base, "int", low=0)
    # Both policies first, so a bad epsilon fails before any episode runs.
    expert, medium = make_policy("expert"), make_policy("medium", epsilon=epsilon)
    n, mid = n_per_tier, seed_base + n_per_tier
    trajs = map_seeds(_collect_two_tier_block, [(cfg, (expert, medium, mid), seed_base, 2 * n)],
                      workers)
    seed_ranges = {expert.policy_id: [seed_base, mid], medium.policy_id: [mid, mid + n]}
    return DatasetManifest(tiers={expert.policy_id: trajs[:n], medium.policy_id: trajs[n:]},
                           config_hash=cfg.canonical_hash(),
                           meta={"seed_ranges": seed_ranges, "epsilon": medium.epsilon})


def ablate(manifest: DatasetManifest, drop_expert: float = 0.0,
           drop_medium: float = 0.0, seed: int = 0) -> DatasetManifest:
    """Drop a seeded uniform sample of trajectories from the named tiers.

    The surviving count per tier is round((1 - frac) * n) and survivors keep
    their original order.  Dropping from a tier that is absent or empty is a
    no-op recorded in the manifest warnings; dropping nothing at all returns
    an identical manifest.  Each fraction must be a finite number in [0, 1] and
    ``seed`` an integer of at least 0; a bool is neither.
    """
    fracs = {tier: _checked(f"drop_{tier}", frac, "float", low=0, high=1)
             for tier, frac in (("expert", drop_expert), ("medium", drop_medium))}
    seed = _checked("seed", seed, "int", low=0)
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
    if any(fracs.values()):
        meta["ablation"] = {"drop_expert": fracs["expert"], "drop_medium": fracs["medium"],
                            "seed": seed, "parent_counts": manifest.counts()}
    return DatasetManifest(tiers=tiers, config_hash=manifest.config_hash,
                           meta=meta, warnings=warnings)


def return_stats(manifest: DatasetManifest, bins: int = 30) -> dict:
    """Per-tier return statistics with histograms over the pooled range;
    ``bins`` is an integer of at least 1."""
    bins = _checked("bins", bins, "int", low=1)
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
    both files were written in full, and a manifest that ``load_dataset``
    would refuse, with no trajectories, with one from another config, with
    one filed under another policy's tier or with a ``NaN`` or ``Infinity``
    anywhere, writes neither."""
    path = str(path)
    if not any(manifest.tiers.values()):
        raise ValueError(f"dataset {path} would be empty: the manifest has no trajectories")
    for tier in sorted(manifest.tiers):
        for traj in manifest.tiers[tier]:
            if traj.config_hash != manifest.config_hash:
                raise ValueError(f"dataset {path} would mix configs: trajectory seed={traj.seed}"
                                 f" ({traj.policy_id}) is not from config {manifest.config_hash}")
            if traj.policy_id != tier:
                raise ValueError(f"dataset {path} would mislabel a tier: trajectory "
                                 f"seed={traj.seed} ({traj.policy_id}) is in tier {tier}")
    digest = hashlib.sha256()
    with (_staged(path, "xb") as data_fh,
          _staged(path + ".manifest.json", "x", encoding="utf-8") as sidecar_fh):
        for traj in manifest.all_trajectories():
            try:
                line = json.dumps(traj.to_record(), separators=(",", ":"), allow_nan=False)
            except ValueError as exc:  # NaN or Infinity, which load_dataset refuses
                raise ValueError(f"dataset {path} would hold a non-finite number: "
                                 f"trajectory seed={traj.seed} ({traj.policy_id}): "
                                 f"{exc}") from None
            line = line.encode("utf-8")
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
        try:
            json.dump(sidecar, sidecar_fh, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise ValueError(f"{path}.manifest.json would hold a non-finite number: "
                             f"{exc}") from None
        sidecar_fh.write("\n")
    return digest.hexdigest()


def _non_finite(token):
    """Refuse the NaN and Infinity tokens that ``json`` reads by default."""
    raise ValueError(f"{token} is not a finite number")


def load_dataset(path) -> DatasetManifest:
    """Read a JSONL dataset back into a manifest.

    Tier membership comes from each line's policy_id; all lines must carry
    the same config hash and ``obs`` width, and every number must be
    finite: ``NaN`` and ``Infinity`` are refused.  A malformed line raises
    ``ValueError`` naming its 1-based line number.  The sidecar, when present, restores metadata; its
    ``meta`` must be an object, its ``warnings`` a list of strings, its
    ``data_sha256`` the digest of the data file, its ``config_hash`` the
    records' hash, and its non-zero ``counts`` the records per tier.
    """
    path = str(path)
    tiers: dict = {}
    first = None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            digest.update(line)
            try:
                traj = Trajectory.from_record(json.loads(line, parse_constant=_non_finite))
                if first is None:
                    first = traj
                if traj.config_hash != first.config_hash:
                    raise ValueError("dataset mixes trajectories from different configs")
                width, want = traj.observations.shape[1], first.observations.shape[1]
                if width != want:
                    raise ValueError(f"obs rows have {width} entries, the first "
                                     f"record's have {want}")
            except KeyError as exc:
                raise ValueError(f"{path} line {lineno}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            tiers.setdefault(traj.policy_id, []).append(traj)
    if first is None:
        raise ValueError(f"dataset {path} is empty")
    try:
        with open(path + ".manifest.json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh, parse_constant=_non_finite)
    except FileNotFoundError:
        sidecar = {}
    except ValueError as exc:
        raise ValueError(f"{path}.manifest.json: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"{path}.manifest.json: expected a JSON object")
    meta, warnings = sidecar.get("meta", {}), sidecar.get("warnings", [])
    if not isinstance(meta, dict):
        raise ValueError(f"{path}.manifest.json: meta must be a JSON object")
    if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
        raise ValueError(f"{path}.manifest.json: warnings must be a list of strings")
    if sidecar.get("data_sha256", digest.hexdigest()) != digest.hexdigest():
        raise ValueError(f"{path}.manifest.json: data_sha256 does not match {path}")
    if sidecar.get("config_hash", first.config_hash) != first.config_hash:
        raise ValueError(f"{path}.manifest.json: config_hash does not match the records of {path}")
    # A tier emptied by ``ablate`` stays listed at 0 but has no records.
    loaded = {tier: len(trajs) for tier, trajs in tiers.items()}
    counts = sidecar.get("counts", loaded)
    if not isinstance(counts, dict) or {t: c for t, c in counts.items() if c != 0} != loaded:
        raise ValueError(f"{path}.manifest.json: counts {counts} do not match the "
                         f"records of {path} {loaded}")
    return DatasetManifest(tiers=tiers, config_hash=first.config_hash, meta=meta,
                           warnings=warnings)
