"""Golden SHA-256 digests of small canonical collections.

A refactor of the step kernel must not shift one bit of any dataset, so
these digests were recorded once and are compared exactly.  They cover
every fading model under both mobility variants, a limited scenario whose
anchors are drawn per episode, the speed-0 scenario, and the plain
``env.step`` path of ``evaluate`` with the random policy.  The config
format is pinned too, because every dataset line embeds the config hash:
the canonical JSON of three configs, a ``save_config`` file, and the
stdout of one ``simulate`` run.  The ``verify`` stdout of three fading
models pins the Monte Carlo bound and the concavity probe.  Scenarios
with 8 to 17 users pin the pairwise sum over users: a dataset, an
``evaluate`` run, ``verify`` stdout and ``action_rewards`` outputs.  A digest that
changes means the simulator's output changed: update it only together with
a deliberate change of behaviour.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

import cellsim as cs
from cellsim.cli import main
from cellsim.config import MobilityConfig, NetworkConfig

HORIZON = 20

DATASET_DIGESTS = {
    "full/none":
        "7f8c1fbd402e8b33ddb91006c197d91edc1cecb69d5d48071fad9a2af8832fe4",
    "full/rayleigh":
        "c5777c11e8ca68a6f9541dec2e6165eee239c5d7093bf3dd5cd84012ccaf8c4c",
    "full/rician:3":
        "3b5cd909a67556f1255e0340ef485b84ca72eb773974c290ccd84bd2fe242bab",
    "limited/none":
        "99be4c14f049eb4b685cd4087d301179d370832f650e00e79a4ec04e76d028b7",
    "limited/rayleigh":
        "6efb3d8fe0a78311101ff318815230a36a9d9c917fa3ad809b6ef4a4ad528dce",
    "limited/rician:3":
        "6797a49e0c4d13e35442001448116072a44ae4a3834ba7a9838a4a13a4d9f173",
    "limited-drawn-anchors/none":
        "ef7988b824eb98b438d41bcbbcbd22396f7b9de82e84b2446c48e6142872e574",
    "frozen/none":
        "f9762aaef9a74abae3ede5e1eff77f39222d57e3c63cb0667d0054cac93522db",
}

EVALUATE_DIGESTS = {
    "full/none":
        "c1d4ed68bb187fef7c1360155e7e7340f19e104e03092cabcf33992e949a7274",
    "limited/rayleigh":
        "96b2acb17e8157c4d3b19bd6759781cdd36e49324252a6b78ed7f0654ec7563b",
}


def _config(name):
    variant, fading = name.split("/")
    if variant == "limited-drawn-anchors":
        return NetworkConfig(mobility=MobilityConfig(variant="limited"),
                             horizon=HORIZON)
    return cs.default_config(mobility_variant=variant, fading=fading,
                             horizon=HORIZON)


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_dataset_digest(name, tmp_path, frozen_cfg):
    if name == "frozen/none":
        cfg = dataclasses.replace(frozen_cfg, horizon=HORIZON)
    else:
        cfg = _config(name)
    manifest = cs.collect_medium_expert(cfg, n_per_tier=2, seed_base=5)
    path = tmp_path / "golden.jsonl"
    cs.write_dataset(manifest, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(EVALUATE_DIGESTS))
def test_evaluate_random_digest(name):
    res = cs.evaluate(_config(name), cs.RandomPolicy(), n_episodes=6,
                      seed_base=11)
    blob = json.dumps([float(r) for r in res.returns]).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == EVALUATE_DIGESTS[name]


EVALUATE_POLICY_DIGESTS = {
    ("expert", "full/rician:3"):
        "1b8284db23b091e173d7ab2315d1773f9a59df6683c3ea7c98e8bb9e6e50b29c",
    ("expert", "limited/none"):
        "d9027b2f13e4ae3ffd0f497f23771c3e1c20d66c1a633aec40585948f42e1a9d",
    ("medium", "full/rician:3"):
        "4ebf0851ffcf0ae55fadefbecb72fca34d49d551d75a103d07315b29ffad28e9",
    ("medium", "limited/none"):
        "d837e60f17be838121eeb97d5df6d297ee0624e1f53928b4cc97c8c822aac9e1",
}


@pytest.mark.parametrize("policy,name", sorted(EVALUATE_POLICY_DIGESTS))
def test_evaluate_policy_digest(policy, name):
    res = cs.evaluate(_config(name), cs.make_policy(policy), n_episodes=9,
                      seed_base=11)
    blob = json.dumps([float(r) for r in res.returns]).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == EVALUATE_POLICY_DIGESTS[policy, name]


NINE_PER_TIER_DIGEST = "247e2e45a597b9b32a76775e801f157285264e97a04ff62e06003ee17242dcd1"


def test_nine_per_tier_dataset_digest(tmp_path):
    manifest = cs.collect_medium_expert(_config("limited/rayleigh"), n_per_tier=9,
                                        seed_base=5)
    path = tmp_path / "golden.jsonl"
    assert cs.write_dataset(manifest, path) == NINE_PER_TIER_DIGEST
    assert hashlib.sha256(path.read_bytes()).hexdigest() == NINE_PER_TIER_DIGEST


SWEEP_CSV_DIGEST = "f29125bdc809afe338841a8032079dc816de5ef31ea556ab78672a82c254852a"


def test_fading_sweep_csv_digest():
    models = [cs.parse_fading(s) for s in ("none", "rician:3", "rayleigh")]
    report = cs.fading_sweep(cs.default_config(horizon=HORIZON), cs.make_policy("expert"),
                             models, n_episodes=6, seed_base=3)
    digest = hashlib.sha256(report.to_csv().encode("utf-8")).hexdigest()
    assert digest == SWEEP_CSV_DIGEST


CONFIG_DIGESTS = {
    "default":
        "2b4dcd01c843c72c56ad9b3a5ce9dfafc6198c372bd7c5df4b8a9429a329ba2f",
    "limited/rician:3":
        "6ccd94bc9e0f5e93c1e96c765a835e20115711efea37ccb51b806d465ee91342",
    "limited-drawn-anchors":
        "9ce5c4ea7a2bf08acf789f0ebc0514f331fa4e93201e291ac4e0d3ceed8f44ff",
}

SAVED_CONFIG_DIGEST = "712c75c419e411c6da100bf2b2825f7f15d9f5cce8aee22174fdb61ca714a713"

SIMULATE_ARGV = ["simulate", "--steps", "20", "--policy", "medium", "--seed", "9",
                 "--fading", "rayleigh"]
SIMULATE_DIGEST = "db5258384df07d679278853ab409fe5e44a1827d3f8c94cefaacb1a658e20198"


def _full_config(name):
    if name == "default":
        return cs.default_config()
    if name == "limited-drawn-anchors":
        return NetworkConfig(mobility=MobilityConfig(variant="limited"))
    return cs.default_config(*name.split("/"))


@pytest.mark.parametrize("name", sorted(CONFIG_DIGESTS))
def test_canonical_json_digest(name):
    cfg = _full_config(name)
    digest = hashlib.sha256(cfg.canonical_json().encode("utf-8")).hexdigest()
    assert digest == CONFIG_DIGESTS[name]
    assert cfg.canonical_hash() == digest


def test_saved_config_digest(tmp_path):
    path = tmp_path / "scenario.json"
    cs.save_config(_full_config("limited/rician:3"), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_CONFIG_DIGEST


def test_simulate_stdout_digest(capsys):
    assert main(SIMULATE_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SIMULATE_DIGEST


VERIFY_DIGESTS = {
    "--fading rayleigh --fixed-allocation":
        "f7fdfd447fc6064e26b9dd198c25473c370399791a1bfb1d7801d588207a5c45",
    "--fading rician:3 --format csv --seed 4":
        "e378123bd6284f7061f65c5adac698716bb902ebb1ea263d755598adaa32b231",
    "--fading none":
        "205b3591f0d0a77c2e0450fa4aa4314350875707c88dc19c47a12e747d093f42",
}


@pytest.mark.parametrize("args", sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(args, capsys):
    argv = ["verify", *args.split(), "--samples", "20000", "--trials", "3000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[args]


# Scenarios with 8 or more users.  numpy sums 8 or more contiguous entries
# pairwise, and fewer in order, so only these digests see the pairwise sum
# over users; every digest above has 5 users.
def _many_users_config(n_ues, fading="none", variant="full", aggregate="mean"):
    return NetworkConfig(n_ues=n_ues, mobility=MobilityConfig(variant=variant),
                         utility=dataclasses.replace(cs.UtilityParams(), aggregate=aggregate),
                         fading=cs.parse_fading(fading), horizon=HORIZON)


MANY_USERS_DATASET_DIGESTS = {
    "9/mean/none":
        "eb5ac7b5d1a0c8cf2e8e27c4281cd661c75f4e43e8478b50d4ff2774d7845c99",
    "12/sum/rayleigh":
        "0f42d59b5eecca4fe48cb6ebd4cb86c1a70aed4a3df1e95e4ffffec5d8dfb95c",
}


@pytest.mark.parametrize("name", sorted(MANY_USERS_DATASET_DIGESTS))
def test_many_users_dataset_digest(name, tmp_path):
    n_ues, aggregate, fading = name.split("/")
    cfg = _many_users_config(int(n_ues), fading, aggregate=aggregate)
    manifest = cs.collect_medium_expert(cfg, n_per_tier=2, seed_base=5)
    path = tmp_path / "golden.jsonl"
    cs.write_dataset(manifest, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MANY_USERS_DATASET_DIGESTS[name]


MANY_USERS_EVALUATE_DIGEST = "dc06e3ed3593b1e1ad0545627326bfee7faf57b4ec97c3a586f2ca47710bda98"


def test_many_users_evaluate_random_digest():
    cfg = _many_users_config(9, "rayleigh", variant="limited")
    res = cs.evaluate(cfg, cs.RandomPolicy(), n_episodes=6, seed_base=11)
    blob = json.dumps([float(r) for r in res.returns]).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == MANY_USERS_EVALUATE_DIGEST


MANY_USERS_VERIFY_DIGESTS = {
    "--fading rayleigh":
        "1d949aa9684e3b506dc9ecf23192e8e89672c963cab88dab5b39652010750726",
    "--fading rayleigh --fixed-allocation":
        "ddbeabfabd4903cf3c7d2ebd51d22c43a135da9af1f00d111bac97006580a8b4",
    "--fading rician:3":
        "19e1f19c4ec0c156ac7e493c48a55e60f63538902ce196a87e1f40d37c1b973d",
    "--fading rician:3 --fixed-allocation":
        "282b196ff8ba759f27fa521686936c4c5bdc787a955f9a17e6e8d38739ecd679",
}


@pytest.mark.parametrize("args", sorted(MANY_USERS_VERIFY_DIGESTS))
def test_many_users_verify_stdout_digest(args, tmp_path, capsys):
    path = tmp_path / "nine.json"
    cs.save_config(_many_users_config(9), path)
    argv = ["verify", "--config", str(path), *args.split(), "--samples", "20000",
            "--trials", "3000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MANY_USERS_VERIFY_DIGESTS[args]


ACTION_REWARDS_DIGESTS = {
    8: "a1106d2539c82ad902ecbe2f5dcb5743cb49da94642704897f25f2a32014ebb9",
    12: "62e79598f0ed1c1a4539f44f2c66fd6172daad414da385bb56a5684e8ebb05fa",
    17: "fbcbe12b4ea4f879c40e24731ecfc082b89c341f010103388b900c4a31f2553c",
}


@pytest.mark.parametrize("n_ues", sorted(ACTION_REWARDS_DIGESTS))
def test_action_rewards_digest(n_ues):
    """Both outputs of ``mac.action_rewards`` on 40 drawn SNR matrices and
    threshold triples, as C-order bytes."""
    rng = np.random.default_rng(n_ues)
    snr = rng.random((40, 3, n_ues)) ** 3
    taus = rng.random((40, 3, 3))
    rewards, utils = cs.mac.action_rewards(snr, taus, cs.UtilityParams())
    assert rewards.shape == (40, 27) and utils.shape == (40, 27, n_ues)
    blob = rewards.tobytes() + utils.tobytes()
    assert hashlib.sha256(blob).hexdigest() == ACTION_REWARDS_DIGESTS[n_ues]
