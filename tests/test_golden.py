"""Golden SHA-256 digests of small canonical collections.

A refactor of the step kernel must not shift one bit of any dataset, so
these digests were recorded once and are compared exactly.  They cover
every fading model under both mobility variants, a limited scenario whose
anchors are drawn per episode, the speed-0 scenario, and the plain
``env.step`` path of ``evaluate`` with the random policy.  A digest that
changes means the simulator's output changed: update it only together with
a deliberate change of behaviour.
"""

import dataclasses
import hashlib
import json

import pytest

import cellsim as cs
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
