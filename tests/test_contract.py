"""The Python contract: the README quickstart runs as written, the package
exports exactly its documented surface, every module's ``__all__`` names
only what exists, every kernel a step module exports is used, every
callable the benchmark traces stays at its module path, every count or
seed argument is an integer, checked against its lowest value, and every
fraction argument a finite number in [0, 1], each before any episode runs
or any worker is forked."""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import cellsim as cs

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(cs.__file__).resolve().parent

EXPORTS = [
    "CellularNetworkEnv", "ConcavityReport", "DEFAULT_MEDIUM_EPSILON", "DatasetManifest",
    "EvalResult", "FadingModel", "GreedyExpertPolicy", "JensenReport", "MediumPolicy",
    "MobilityConfig", "NetworkConfig", "RadioParams", "RandomPolicy", "SweepReport",
    "Trajectory", "UtilityParams", "ablate", "collect", "collect_medium_expert",
    "collect_trajectory", "concavity_probe", "decode_action", "default_config",
    "evaluate", "fading_sweep", "load_config", "load_dataset", "make_policy",
    "parse_fading", "rescale", "return_stats", "save_config", "verify_jensen",
    "write_dataset",
]

# Step kernels that live only in their modules, not in the package namespace.
KERNELS = {
    "mobility": ["init_positions", "step_motion"],
    "radio": ["snr_matrix", "sample_fading"],
    "mac": ["data_rate", "reward", "reward_terms"],
}

# What perfbench/run.py::trace_targets wraps.  Moving or renaming any of
# these breaks the benchmark's trace, so such a change needs its own
# benchmark change first.
TRACED_FUNCTIONS = [
    "mobility.step_motion", "radio.snr_matrix", "radio.sample_fading", "mac.reward",
    "mac.reward_terms", "mac.verify_jensen", "data.collect_trajectory",
    "data.collect_medium_expert", "data.write_dataset", "data.load_dataset",
    "harness.evaluate",
]
TRACED_METHODS = [
    ("CellularNetworkEnv", "reset"), ("CellularNetworkEnv", "step"),
    ("CellularNetworkEnv", "preview_step_rewards"), ("GreedyExpertPolicy", "__call__"),
    ("MediumPolicy", "__call__"), ("RandomPolicy", "__call__"),
]
TRACED_MODULES = ["mobility", "radio", "mac", "env", "policies", "data", "harness"]


def quickstart_blocks():
    section = README.read_text(encoding="utf-8").split("## Python quickstart", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_readme_quickstart_runs_verbatim(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = quickstart_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["done"]
    assert (tmp_path / "medium_expert.jsonl").exists()


def test_package_exports_the_contract():
    assert sorted(cs.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(cs, name) is not None, name


@pytest.mark.parametrize("module", sorted(KERNELS))
def test_kernels_stay_in_their_modules(module):
    for name in KERNELS[module]:
        assert hasattr(getattr(cs, module), name), f"{module}.{name}"
        assert not hasattr(cs, name), name


@pytest.mark.parametrize("module", sorted(set(KERNELS) | set(TRACED_MODULES)))
def test_every_name_in_all_exists(module):
    # A name left in __all__ after its object is gone breaks ``import *``.
    mod = getattr(cs, module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


def _called_names() -> set:
    """Every name called anywhere in the package's source, as ``name(...)``
    or ``module.name(...)``, except a function's calls of itself."""
    called = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is not None and name not in enclosing:
                called.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return called


@pytest.mark.parametrize("module", ["mac", "mobility", "radio"])
def test_every_exported_kernel_is_used(module):
    # A public name of a step module that the package never calls, does not
    # export and the benchmark does not trace is a second way into a kernel
    # that only tests use: test the kernel instead.
    called = _called_names()
    unused = [name for name in getattr(cs, module).__all__
              if name not in called and name not in cs.__all__
              and f"{module}.{name}" not in TRACED_FUNCTIONS]
    assert unused == [], f"{module}: {unused}"


def test_benchmark_trace_targets_exist():
    for path in TRACED_FUNCTIONS:
        module, name = path.split(".")
        assert callable(getattr(getattr(cs, module), name)), path
    for cls, attr in TRACED_METHODS:
        assert callable(vars(getattr(cs, cls)).get(attr)), f"{cls}.{attr}"
    for module in TRACED_MODULES:
        assert getattr(cs, module).__name__ == f"cellsim.{module}"


_CFG = cs.default_config(horizon=2)
_MANIFEST = cs.collect(_CFG, cs.RandomPolicy(), 3)

# Each API entry point that takes counts or seeds, with a valid value for
# each.  Every count spans two seeds or more, so at two workers the call
# would fork.
COUNTED = {
    "collect": (lambda **kw: cs.collect(_CFG, cs.RandomPolicy(), **kw),
                {"n_traj": 2, "seed_base": 3, "workers": 1}),
    "collect_medium_expert": (lambda **kw: cs.collect_medium_expert(_CFG, **kw),
                              {"n_per_tier": 1, "seed_base": 3, "workers": 1}),
    "evaluate": (lambda **kw: cs.evaluate(_CFG, cs.RandomPolicy(), **kw),
                 {"n_episodes": 2, "seed_base": 3, "workers": 1}),
    "fading_sweep": (lambda **kw: cs.fading_sweep(_CFG, cs.RandomPolicy(),
                                                  [cs.parse_fading("none")], **kw),
                     {"n_episodes": 2, "seed_base": 3, "workers": 1}),
    "verify_jensen": (lambda **kw: cs.verify_jensen(np.full((3, 5), 0.5), [0.2] * 3,
                                                    cs.parse_fading("rayleigh"),
                                                    _CFG.utility, rng=0, **kw),
                      {"n_samples": 10_000}),
    "concavity_probe": (lambda **kw: cs.concavity_probe(_CFG.utility, [0.2] * 3, rng=0, **kw),
                        {"n_trials": 2, "n_ues": 2}),
    "CellularNetworkEnv.reset": (lambda **kw: cs.CellularNetworkEnv(_CFG).reset(**kw).tolist(),
                                 {"seed": 3}),
    "collect_trajectory": (lambda **kw: cs.collect_trajectory(_CFG, cs.RandomPolicy(),
                                                              **kw).to_record(),
                           {"seed": 3}),
    "return_stats": (lambda **kw: cs.return_stats(_MANIFEST, **kw), {"bins": 2}),
    "ablate": (lambda **kw: cs.ablate(_MANIFEST, drop_medium=0.5, **kw), {"seed": 3}),
}
COUNT_ARGUMENTS = [(fn, arg) for fn in COUNTED for arg in COUNTED[fn][1]]
# The lowest value of each count or seed argument, the same at every entry point.
LOWEST = {"n_traj": 0, "n_per_tier": 0, "n_episodes": 1, "seed_base": 0, "workers": 1,
          "n_samples": 10_000, "n_trials": 1, "n_ues": 1, "seed": 0, "bins": 1}


@pytest.mark.parametrize("value", [True, False, np.True_, 2.0, 2.5, "2", None],
                         ids=["True", "False", "np.True_", "2.0", "2.5", "str", "None"])
@pytest.mark.parametrize("fn, arg", COUNT_ARGUMENTS,
                         ids=[f"{fn}-{arg}" for fn, arg in COUNT_ARGUMENTS])
def test_count_argument_must_be_an_integer(fn, arg, value):
    call, valid = COUNTED[fn]
    with pytest.raises(ValueError, match=rf"^{arg} must be an integer, got {re.escape(repr(value))}$"):
        call(**{**valid, arg: value})


@pytest.mark.parametrize("fn, arg", COUNT_ARGUMENTS,
                         ids=[f"{fn}-{arg}" for fn, arg in COUNT_ARGUMENTS])
def test_count_argument_below_its_lowest_fails_before_any_episode(fn, arg, forks, resets):
    call, valid = COUNTED[fn]
    low = LOWEST[arg]
    kwargs = {**valid, "workers": 2} if "workers" in valid else dict(valid)
    with pytest.raises(ValueError, match=rf"^{arg} must be at least {low}, got {low - 1}$"):
        call(**{**kwargs, arg: low - 1})
    assert (forks, resets) == ([], [])


def _comparable(result):
    # A manifest's meta goes into the sidecar as JSON, so it must hold plain ints.
    if isinstance(result, cs.DatasetManifest):
        return json.dumps(result.meta), [t.to_record() for t in result.all_trajectories()]
    return result


@pytest.mark.parametrize("fn", sorted(COUNTED))
def test_count_arguments_accept_numpy_integers(fn):
    call, valid = COUNTED[fn]
    got = call(**{arg: np.int64(v) for arg, v in valid.items()})
    assert _comparable(got) == _comparable(call(**valid))


def _medium(epsilon):
    """A medium policy whose ``epsilon`` was set after it was built, past
    ``MediumPolicy``'s own check."""
    policy = cs.make_policy("medium")
    policy.epsilon = epsilon
    return policy


def _state(policy):
    # A policy's epsilon goes into the sidecar as JSON, so it must be a plain float.
    return policy.policy_id, json.dumps(vars(policy))


_TIERED = cs.collect_medium_expert(_CFG, 2)

# Each API entry point that takes a fraction, with a valid value for each.
# The calls that run episodes ask for two workers, so they would fork.
FRACTIONS = {
    **{f"make_policy-{tier}": (lambda tier=tier, **kw: _state(cs.make_policy(tier, **kw)),
                               {"epsilon": 0.3})
       for tier in ("expert", "medium", "random")},
    "MediumPolicy": (lambda **kw: _state(cs.MediumPolicy(**kw)), {"epsilon": 0.3}),
    "collect_medium_expert": (lambda **kw: cs.collect_medium_expert(_CFG, 1, workers=2, **kw),
                              {"epsilon": 0.3}),
    "collect": (lambda epsilon: cs.collect(_CFG, _medium(epsilon), 2, workers=2),
                {"epsilon": 0.3}),
    "collect_trajectory": (lambda epsilon: cs.collect_trajectory(_CFG, _medium(epsilon),
                                                                 3).to_record(),
                           {"epsilon": 0.3}),
    "evaluate": (lambda epsilon: cs.evaluate(_CFG, _medium(epsilon), 2, workers=2),
                 {"epsilon": 0.3}),
    "fading_sweep": (lambda epsilon: cs.fading_sweep(_CFG, _medium(epsilon),
                                                     [cs.parse_fading("none")], 2, workers=2),
                     {"epsilon": 0.3}),
    "ablate": (lambda **kw: cs.ablate(_TIERED, **kw), {"drop_expert": 0.5, "drop_medium": 0.5}),
}
FRACTION_ARGUMENTS = [(fn, arg) for fn in FRACTIONS for arg in FRACTIONS[fn][1]]
# Each refused value and the requirement its message names.
BAD_FRACTIONS = {"True": (True, "a finite number"), "np.True_": (np.True_, "a finite number"),
                 "str": ("0.3", "a finite number"), "None": (None, "a finite number"),
                 "nan": (float("nan"), "a finite number"),
                 "inf": (float("inf"), "a finite number"),
                 "-0.1": (-0.1, "at least 0"), "1.5": (1.5, "at most 1")}


@pytest.mark.parametrize("bad", sorted(BAD_FRACTIONS))
@pytest.mark.parametrize("fn, arg", FRACTION_ARGUMENTS,
                         ids=[f"{fn}-{arg}" for fn, arg in FRACTION_ARGUMENTS])
def test_fraction_argument_refused_before_any_episode(fn, arg, bad, forks, resets):
    call, valid = FRACTIONS[fn]
    value, requirement = BAD_FRACTIONS[bad]
    message = rf"^{arg} must be {requirement}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        call(**{**valid, arg: value})
    assert (forks, resets) == ([], [])


@pytest.mark.parametrize("value", [0, 1, np.float32(0.25)], ids=["0", "1", "np.float32"])
@pytest.mark.parametrize("fn, arg", FRACTION_ARGUMENTS,
                         ids=[f"{fn}-{arg}" for fn, arg in FRACTION_ARGUMENTS])
def test_fraction_argument_accepted_as_its_float(fn, arg, value):
    call, valid = FRACTIONS[fn]
    got = call(**{**valid, arg: value})
    assert _comparable(got) == _comparable(call(**{**valid, arg: float(value)}))
