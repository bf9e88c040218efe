"""Shared fixtures: tiny scenarios that keep the unit tests fast."""

import json
import os
import sys
import tracemalloc

import pytest

# No bytecode cache under src/: a cache left by one run changes the memory
# the benchmark reads on the next.  Set before cellsim is imported, and
# inherited by the CLI subprocesses the tests start.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import cellsim as cs  # noqa: E402
from cellsim.config import MobilityConfig, NetworkConfig  # noqa: E402


@pytest.fixture
def default_cfg():
    return cs.default_config()


@pytest.fixture
def short_cfg():
    """Default scenario cut to a 10-step horizon."""
    return cs.default_config(horizon=10)


@pytest.fixture
def frozen_cfg():
    """A fully deterministic scenario: the five users sit still at one
    point, nothing fades, so every episode repeats the same numbers
    regardless of seed."""
    mobility = MobilityConfig(variant="limited", speed=0.0, init_radius=0.0,
                              waypoint_radius=0.0,
                              anchors=((100.0, 60.0),) * 5)
    return NetworkConfig(mobility=mobility, horizon=10)


def peak_traced_bytes(fn, *args, **kwargs) -> int:
    """The most memory ``fn(*args, **kwargs)`` held at once, in bytes, as
    tracemalloc counts it from the start of the call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def set_usable_cpus(monkeypatch, n):
    """Make this process see ``n`` usable CPUs, as ``map_seeds`` and
    ``verify_jensen`` count them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# More forks than any test here needs: a call past it fails before forking, so
# a broken process cap cannot start thousands of processes.
MAX_FORKS = 8


@pytest.fixture
def forks(monkeypatch):
    """A list that grows by one at each ``os.fork`` in this process, on a
    machine with 2 usable CPUs."""
    if not hasattr(os, "fork"):
        pytest.skip("os.fork does not exist on this platform")
    calls = []
    fork = os.fork

    def counting():
        assert len(calls) < MAX_FORKS, f"more than {MAX_FORKS} forks"
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    set_usable_cpus(monkeypatch, 2)
    return calls


@pytest.fixture
def resets(monkeypatch):
    """A list that grows by the seeds of each ``EpisodeBatch.reset`` in this
    process."""
    calls = []
    reset = cs.env.EpisodeBatch.reset

    def counting(self, seeds):
        calls.append(seeds)
        return reset(self, seeds)

    monkeypatch.setattr(cs.env.EpisodeBatch, "reset", counting)
    return calls


def positions_of(reset, *args):
    """Call ``reset(*args)``; return its result and the (horizon + 1, B,
    n_ues, 2) positions it passed to its one ``radio.snr_matrix`` call,
    which no batch keeps."""
    walks = []
    snr_matrix = cs.radio.snr_matrix

    def recording(bs, positions, params):
        walks.append(positions)
        return snr_matrix(bs, positions, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cs.radio, "snr_matrix", recording)
        result = reset(*args)
    (walk,) = walks
    return result, walk


def _set_step(i, **fields):
    return lambda rec: rec["steps"][i].update(fields)


def _set_first_obs(value):
    return lambda rec: rec["steps"][0]["obs"].__setitem__(0, value)


def _cut_obs(n):
    def edit(rec):
        for step in rec["steps"]:
            step["obs"] = step["obs"][:n]
    return edit


def _reward_as_string(rec):
    rec["steps"][0]["reward"] = repr(rec["steps"][0]["reward"])


# Edits that leave a record loadable by a lenient reader but not readable
# exactly, each with the message the loader must give.
INEXACT_RECORDS = {
    "action-1.5": (_set_step(0, action=1.5), "every action must be an integer"),
    "reward-string": (_reward_as_string, "obs, reward, rtg and total_return must be numbers"),
    "seed-0.7": (lambda rec: rec.update(seed=0.7), "seed 0.7 is not an integer"),
    "t-7-on-step-1": (_set_step(1, t=7), "step 1 has t=7"),
    "obs-cut-to-3": (_cut_obs(3), "obs rows have 3 entries, the first record's have 23"),
    "obs-empty": (_cut_obs(0), "obs rows are empty"),
    "obs-NaN": (_set_first_obs(float("nan")), "NaN is not a finite number"),
    "reward-Infinity": (_set_step(0, reward=float("inf")), "Infinity is not a finite number"),
    "policy_id-5": (lambda rec: rec.update(policy_id=5), "policy_id 5 is not a string"),
    "config_hash-7": (lambda rec: rec.update(config_hash=7), "config_hash 7 is not a string"),
}


@pytest.fixture(params=sorted(INEXACT_RECORDS))
def inexact_dataset(request, tmp_path):
    """A two-record, horizon-5 ``random`` dataset without a sidecar whose
    second record carries one of ``INEXACT_RECORDS``; returns (path, message)."""
    path = tmp_path / "inexact.jsonl"
    cs.write_dataset(cs.collect(cs.default_config(horizon=5), cs.make_policy("random"), 2),
                     path)
    (tmp_path / "inexact.jsonl.manifest.json").unlink()
    first, second = path.read_text().splitlines()
    rec = json.loads(second)
    edit, message = INEXACT_RECORDS[request.param]
    edit(rec)
    path.write_text(first + "\n" + json.dumps(rec, separators=(",", ":")) + "\n")
    return path, message
