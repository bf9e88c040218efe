"""Command line interface: every subcommand driven through main(argv)."""

import json
import math

import pytest

import cellsim as cs
from cellsim.cli import main
from cellsim.config import default_config, save_config
from cellsim.data import load_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_episode_output(self, capsys):
        code, out, _ = run(capsys, "simulate", "--steps", "5", "--policy",
                           "random", "--seed", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        for t, line in enumerate(lines[:5]):
            assert line.startswith(f"t={t} action=")
            assert "reward=" in line
        assert lines[-1].startswith("total_return=")

    def test_total_is_the_trajectorys_return(self, capsys):
        # The dataset's total_return is the first return-to-go, a reverse
        # sum; a forward sum of the printed rewards may differ in the last
        # bits, as it does on this episode.
        code, out, _ = run(capsys, "simulate", "--steps", "20", "--policy", "medium",
                           "--seed", "9", "--fading", "rayleigh")
        traj = cs.collect_trajectory(default_config(fading="rayleigh", horizon=20),
                                     cs.MediumPolicy(), 9)
        forward = 0.0
        for rew in traj.rewards.tolist():
            forward += rew
        assert code == 0
        assert out.splitlines()[-1] == f"total_return={traj.total_return!r}"
        assert repr(forward) != repr(traj.total_return)

    def test_rerun_is_byte_identical(self, capsys):
        argv = ("simulate", "--steps", "8", "--policy", "medium", "--seed", "5")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_policy_changes_episode(self, capsys):
        _, random_out, _ = run(capsys, "simulate", "--steps", "8",
                               "--policy", "random", "--seed", "5")
        _, expert_out, _ = run(capsys, "simulate", "--steps", "8",
                               "--policy", "expert", "--seed", "5")
        assert random_out != expert_out


class TestCollect:
    def test_single_tier(self, capsys, tmp_path):
        out_file = tmp_path / "set.jsonl"
        code, out, _ = run(capsys, "collect", "--tier", "random", "--n", "3",
                           "--horizon", "10", "--out", str(out_file))
        assert code == 0
        assert "tier=random trajectories=3" in out
        assert "total steps: 30" in out
        assert "sha256=" in out
        assert out_file.exists()
        assert (tmp_path / "set.jsonl.manifest.json").exists()
        assert load_dataset(out_file).counts() == {"random": 3}

    def test_medium_expert(self, capsys, tmp_path):
        out_file = tmp_path / "me.jsonl"
        code, out, _ = run(capsys, "collect", "--tier", "medium-expert",
                           "--n", "2", "--horizon", "10", "--out", str(out_file))
        assert code == 0
        assert "tier=expert trajectories=2" in out
        assert "tier=medium trajectories=2" in out
        assert load_dataset(out_file).counts() == {"expert": 2, "medium": 2}

    def test_missing_output_directory_names_the_target(self, capsys, tmp_path):
        target = tmp_path / "nodir" / "x.jsonl"
        code, out, err = run(capsys, "collect", "--tier", "random", "--n", "1",
                             "--horizon", "5", "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error:") and f"'{target}'" in err and ".tmp" not in err

    def test_worker_error_exits_1_and_writes_nothing(self, capsys, tmp_path, forks,
                                                    monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("rollout failed")

        monkeypatch.setattr(cs.data, "rollout", failing)
        code, out, err = run(capsys, "collect", "--tier", "random", "--n", "4",
                             "--horizon", "5", "--out", str(tmp_path / "x.jsonl"),
                             "--workers", "2")
        assert len(forks) == 1
        assert (code, out, err) == (1, "", "error: rollout failed\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_count_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "collect", "--tier", "random", "--n", "0",
                           "--out", str(tmp_path / "x.jsonl"))
        assert code == 1
        assert err == "error: --n must be at least 1, got 0\n"


class TestStatsAndAblate:
    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        path = tmp_path / "base.jsonl"
        run(capsys, "collect", "--tier", "medium-expert", "--n", "4",
            "--horizon", "10", "--out", str(path))
        return path

    def test_stats_output(self, capsys, dataset):
        code, out, _ = run(capsys, "stats", "--in", str(dataset), "--bins", "5")
        assert code == 0
        assert "tier=expert n=4" in out
        assert "tier=medium n=4" in out
        assert "total steps: 80" in out
        assert "histogram bins=5" in out

    def test_ablate_drops_and_writes(self, capsys, dataset, tmp_path):
        out_file = tmp_path / "ablated.jsonl"
        code, out, _ = run(capsys, "ablate", "--in", str(dataset),
                           "--drop-expert", "0.5", "--out", str(out_file))
        assert code == 0
        assert "tier=expert trajectories=2" in out
        assert "tier=medium trajectories=4" in out
        assert load_dataset(out_file).counts() == {"expert": 2, "medium": 4}

    def test_ablate_missing_tier_warns(self, capsys, tmp_path):
        path = tmp_path / "solo.jsonl"
        run(capsys, "collect", "--tier", "random", "--n", "2",
            "--horizon", "10", "--out", str(path))
        code, _, err = run(capsys, "ablate", "--in", str(path),
                           "--drop-medium", "0.5",
                           "--out", str(tmp_path / "out.jsonl"))
        assert code == 0
        assert "warning:" in err

    def test_ablate_to_nothing_writes_nothing(self, capsys, dataset, tmp_path):
        out_file = tmp_path / "empty.jsonl"
        code, out, err = run(capsys, "ablate", "--in", str(dataset), "--drop-expert", "1",
                             "--drop-medium", "1", "--out", str(out_file))
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out_file.exists()
        assert not (tmp_path / "empty.jsonl.manifest.json").exists()

    def test_missing_input_fails(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--in", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert "error:" in err


class TestEvaluate:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--policy", "random",
                           "--episodes", "3", "--horizon", "10")
        assert code == 0
        assert "policy=random episodes=3" in out
        assert "mean=" in out
        assert "std=" in out
        assert "score=" not in out

    def test_score_with_baselines(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--policy", "random",
                           "--episodes", "2", "--horizon", "10",
                           "--baseline-expert", "10", "--baseline-random", "0")
        assert code == 0
        assert "score=" in out

    def test_equal_baselines_fail(self, capsys):
        # Equal or non-finite baselines fail before any episode prints.
        for expert, random in (("5", "5"), ("nan", "0"), ("inf", "0")):
            code, out, err = run(capsys, "evaluate", "--policy", "random",
                                 "--episodes", "2", "--horizon", "10",
                                 "--baseline-expert", expert, "--baseline-random", random)
            assert code == 1
            assert "error:" in err
            assert out == ""

    def test_lone_baseline_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--policy", "random", "--episodes", "3",
                  "--baseline-expert", "50"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cellsim evaluate")
        assert "--baseline-expert requires --baseline-random" in err


class TestVerify:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--fading", "rayleigh",
                           "--samples", "10000", "--trials", "500",
                           "--fixed-allocation")
        assert code == 0
        assert "holds=True" in out
        assert "fixed_allocation=True" in out
        assert "passed=True" in out

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--fading", "rician:3",
                           "--samples", "10000", "--trials", "500",
                           "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "model,n_samples,fixed_allocation,r,mean_R,std_R,sem,holds"
        assert lines[1].startswith("rician:3,10000,")

    def test_bad_model_fails(self, capsys):
        code, _, err = run(capsys, "verify", "--fading", "weibull",
                           "--samples", "10000")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_fail(self, capsys, trials):
        code, _, err = run(capsys, "verify", "--fading", "rayleigh",
                           "--samples", "10000", "--trials", trials)
        assert code == 1
        assert err == f"error: n_trials must be at least 1, got {trials}\n"

    def test_trials_checked_before_the_monte_carlo(self, capsys, monkeypatch):
        def monte_carlo(*args, **kwargs):
            raise AssertionError("verify_jensen ran before --trials was checked")

        monkeypatch.setattr(cs.mac, "verify_jensen", monte_carlo)
        code, out, err = run(capsys, "verify", "--fading", "rician:3",
                             "--samples", "400000", "--trials", "0")
        assert (code, out, err) == (1, "", "error: n_trials must be at least 1, got 0\n")


class TestSweepFading:
    def test_csv_and_ordering_flag(self, capsys):
        code, out, _ = run(capsys, "sweep-fading", "--policy", "random",
                           "--episodes", "2", "--models", "none,rayleigh")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "policy_id,fading,mobility_variant,n_episodes,mean,std,score"
        assert lines[1].startswith("random,none,full,2,")
        assert lines[2].startswith("random,rayleigh,full,2,")
        assert lines[-1] in ("ordering_ok=True", "ordering_ok=False")

    def test_empty_model_list_fails(self, capsys):
        code, _, err = run(capsys, "sweep-fading", "--policy", "random",
                           "--models", ",")
        assert code == 1
        assert "error:" in err

    def test_blank_model_names_fail_with_the_api_message(self, capsys):
        code, out, err = run(capsys, "sweep-fading", "--policy", "random",
                             "--models", " , ")
        assert (code, out) == (1, "")
        assert err == "error: models must name at least one fading model\n"

    def test_lone_baseline_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-fading", "--policy", "random", "--episodes", "2",
                  "--baseline-random", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: cellsim sweep-fading")
        assert "--baseline-random requires --baseline-expert" in err


class TestShowConfig:
    def test_default_json(self, capsys):
        code, out, _ = run(capsys, "show-config")
        assert code == 0
        doc = json.loads(out)
        assert doc["network"]["n_bs"] == 3
        assert doc["network"]["n_ues"] == 5
        assert doc["fading"]["kind"] == "none"

    def test_flag_overrides(self, capsys):
        code, out, _ = run(capsys, "show-config", "--fading", "rician:5",
                           "--mobility", "limited")
        assert code == 0
        doc = json.loads(out)
        assert doc["fading"]["kind"] == "rician"
        assert doc["fading"]["k_factor"] == 5.0
        assert doc["mobility"]["variant"] == "limited"

    def test_config_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        save_config(default_config(mobility_variant="limited",
                                   fading="rician:7"), path)
        code, out, _ = run(capsys, "show-config", "--config", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["mobility"]["variant"] == "limited"
        assert doc["fading"]["k_factor"] == 7.0

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "show-config", "--config",
                           str(tmp_path / "absent.json"))
        assert code == 1
        assert "error:" in err


def _config_with(**sections):
    doc = default_config().to_dict()
    for name, values in sections.items():
        doc[name] = {**doc[name], **values}
    return doc


_EMPTY_STEPS = {"seed": 0, "policy_id": "random", "config_hash": "x",
                "total_return": 0.0, "steps": []}


class TestMalformedInputs:
    """Every malformed config, flag or dataset exits 1 with an ``error:``
    line on stderr, never with a traceback."""

    @pytest.mark.parametrize("doc", [
        _config_with(radio={"bogus": 1}),
        dict(_config_with(), network=[]),
        [],
        _config_with(mobility={"speed": "fast"}),
        _config_with(mobility={"anchors": 5}),
        _config_with(fading={"kind": "rician", "omega": math.nan}),
        _config_with(network={"n_bs": 2.5}),
        _config_with(episode={"horizon": True}),
        _config_with(mobility={"speed": -1}),
        _config_with(utility={"aggregate": "max"}),
        _config_with(network={"bs_positions": [[250.0, 1.0]] * 3}),
    ], ids=["unknown-key", "section-not-object", "document-not-object",
            "string-speed", "scalar-anchors", "nan-omega", "fractional-n-bs",
            "bool-horizon", "negative-speed", "unknown-aggregate", "station-off-map"])
    @pytest.mark.parametrize("command", ["simulate", "show-config"])
    def test_bad_config_file(self, capsys, tmp_path, doc, command):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert out == ""

    # The config bounds a flag reaches without a config file.
    @pytest.mark.parametrize("argv, message", [
        (["verify", "--fading", "rician:-1", "--samples", "10000"],
         "FadingModel.k_factor must be at least 0, got -1.0"),
        (["simulate", "--steps", "0"], "NetworkConfig.horizon must be at least 1, got 0"),
        (["evaluate", "--policy", "random", "--episodes", "1", "--horizon", "0"],
         "NetworkConfig.horizon must be at least 1, got 0"),
        (["collect", "--tier", "random", "--n", "1", "--out", "{out}", "--horizon", "-1"],
         "NetworkConfig.horizon must be at least 1, got -1"),
    ], ids=["verify-rician-k", "simulate-steps", "evaluate-horizon", "collect-horizon"])
    def test_flag_past_a_config_bound_names_the_field(self, capsys, tmp_path, argv, message):
        out = tmp_path / "set.jsonl"
        result = run(capsys, *(arg.format(out=out) for arg in argv))
        assert result == (1, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", ["rician:nan", "rician:inf"])
    def test_non_finite_fading_flag(self, capsys, spec):
        code, out, err = run(capsys, "simulate", "--steps", "30", "--policy",
                             "random", "--fading", spec)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("spec", ["ricianx:3", "rician_k:2"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--samples", "10000", "--trials", "10", "--fading", "{}"],
        ["simulate", "--steps", "2", "--fading", "{}"],
        ["sweep-fading", "--policy", "random", "--episodes", "1", "--models", "none,{}"],
    ], ids=["verify", "simulate", "sweep-fading"])
    def test_undocumented_fading_spec(self, capsys, argv, spec):
        code, out, err = run(capsys, *(arg.format(spec) for arg in argv))
        assert code == 1
        assert err.startswith("error:") and repr(spec) in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("command, flag", [("verify", "--samples"), ("verify", "--trials"),
                                               ("stats", "--bins")])
    def test_count_too_large_to_allocate(self, capsys, tmp_path, command, flag):
        # 2**55 float64 entries exceed any address space, so the allocation
        # fails at once, with nothing touched.
        argv = [command, flag, str(2 ** 55)]
        if command == "stats":
            path = tmp_path / "base.jsonl"
            run(capsys, "collect", "--tier", "random", "--n", "2", "--horizon", "3",
                "--out", str(path))
            argv += ["--in", str(path)]
        else:
            argv += ["--fading", "rayleigh"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("line", [json.dumps(_EMPTY_STEPS), "[]"],
                             ids=["empty-steps", "not-an-object"])
    @pytest.mark.parametrize("command", ["stats", "ablate"])
    def test_bad_dataset_line(self, capsys, tmp_path, line, command):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        argv = [command, "--in", str(path)]
        if command == "ablate":
            argv += ["--drop-expert", "0.5", "--out", str(tmp_path / "out.jsonl")]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "line 1:" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("workers", ["0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["collect", "--tier", "random", "--n", "2"],
        ["collect", "--tier", "medium-expert", "--n", "2"],
        ["evaluate", "--policy", "random", "--episodes", "2"],
        ["sweep-fading", "--policy", "random", "--episodes", "2"],
    ], ids=["collect", "collect-medium-expert", "evaluate", "sweep-fading"])
    def test_workers_below_one(self, capsys, tmp_path, argv, workers):
        out_path = tmp_path / "out.jsonl"
        if argv[0] == "collect":
            argv = argv + ["--out", str(out_path)]
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == 1
        assert err == f"error: workers must be at least 1, got {workers}\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--policy", "expert", "--episodes", "1", "--horizon", "2",
         "--epsilon", "7"],
        ["collect", "--tier", "random", "--n", "1", "--horizon", "2", "--epsilon", "-3"],
    ], ids=["evaluate-expert", "collect-random"])
    def test_epsilon_out_of_range_for_every_tier(self, capsys, tmp_path, argv):
        if argv[0] == "collect":
            argv = argv + ["--out", str(tmp_path / "e.jsonl")]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == "error: epsilon must lie in [0, 1]\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, arg", [
        (["simulate", "--steps", "2", "--seed", "-1"], "seed"),
        (["collect", "--tier", "random", "--n", "2", "--horizon", "2", "--seed-base", "-1"],
         "seed_base"),
        (["evaluate", "--policy", "random", "--episodes", "2", "--horizon", "2",
          "--seed-base", "-1"], "seed_base"),
        (["sweep-fading", "--policy", "random", "--episodes", "2", "--seed-base", "-1"],
         "seed_base"),
        (["verify", "--fading", "rayleigh", "--samples", "10", "--trials", "1",
          "--seed", "-1"], "seed"),
    ], ids=["simulate", "collect", "evaluate", "sweep-fading", "verify"])
    def test_negative_seed_names_the_seed(self, capsys, tmp_path, argv, arg):
        if argv[0] == "collect":
            argv = argv + ["--out", str(tmp_path / "out.jsonl")]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {arg} must be at least 0, got -1\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == []


_SIDECAR_EDITS = {"meta-int": {"meta": 5}, "warnings-int": {"warnings": 7},
                  "digest": {"data_sha256": "0" * 64},
                  "config-hash": {"config_hash": "0" * 64},
                  "counts": {"counts": {"random": 99}}}


class TestMalformedDatasetFiles:
    """A malformed sidecar or a tampered record exits 1 with an ``error:``
    line and writes no output."""

    @pytest.fixture
    def dataset(self, capsys, tmp_path):
        path = tmp_path / "base.jsonl"
        run(capsys, "collect", "--tier", "random", "--n", "2", "--horizon", "10",
            "--out", str(path))
        return path

    def _run(self, capsys, command, path):
        argv = [command, "--in", str(path)]
        if command == "ablate":
            argv += ["--drop-medium", "0.5", "--out", str(path.parent / "out.jsonl")]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not (path.parent / "out.jsonl").exists()
        return err

    @pytest.mark.parametrize("edit", sorted(_SIDECAR_EDITS))
    @pytest.mark.parametrize("command", ["stats", "ablate"])
    def test_bad_sidecar(self, capsys, dataset, command, edit):
        sidecar_path = dataset.parent / (dataset.name + ".manifest.json")
        sidecar = json.loads(sidecar_path.read_text())
        sidecar_path.write_text(json.dumps({**sidecar, **_SIDECAR_EDITS[edit]}))
        assert "manifest.json:" in self._run(capsys, command, dataset)

    def test_inexact_record(self, capsys, inexact_dataset):
        path, message = inexact_dataset
        code, out, err = run(capsys, "stats", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path} line 2: {message}\n"

    @pytest.mark.parametrize("command", ["stats", "ablate"])
    def test_edited_returns_to_go(self, capsys, dataset, command):
        first, second = dataset.read_text().splitlines()
        rec = json.loads(second)
        rec["steps"][0]["rtg"] += 1.0
        rec["total_return"] += 1.0
        dataset.write_text(first + "\n" + json.dumps(rec) + "\n")
        assert "line 2:" in self._run(capsys, command, dataset)


class TestUnexpectedErrors:
    def test_key_error_propagates(self, capsys, monkeypatch, tmp_path):
        # Only domain errors exit 1; a KeyError is a bug and keeps its traceback.
        def broken(path):
            raise KeyError("bug")

        monkeypatch.setattr("cellsim.data.load_dataset", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["stats", "--in", str(tmp_path / "x.jsonl")])


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["collect", "--tier", "random", "--n", "1"])
        assert exc.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--policy", "oracle"])
        assert exc.value.code == 2
